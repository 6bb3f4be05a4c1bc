// Command perfbench is the repository's end-to-end benchmark. One process
// hosts everything a workload needs — filterd replicas and the cluster
// router as service.Handler / cluster.Router instances on loopback
// listeners, or the stream executor with an embedded planner — drives it
// with a closed loop of at most nproc clients for --seconds, checks every
// answer against computations made apart from the serving path, and prints
// one JSON result as the last line of standard output.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cold-plan --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh minima            # remake perfbench/minima.json
//
// --trace 0 reports the end-to-end metrics; --trace 1 measures half the
// run untraced and half with spans recorded around every call into a
// layer, and reports the per-layer metrics plus the tracing overhead. The
// spans are written to .bench_build/traces when the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// reached names the per-layer metrics the workload measured itself
	// (the rest of layerUnits read 0).
	reached []string
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	clients  int
	// root is the repository checkout (testdata/ and perfbench/ live
	// there); tmp holds the run's temporary store directories and
	// traceDir the span files.
	root     string
	tmp      string
	traceDir string
	log      io.Writer
	// beforeCheck, when set, sees the workload between the measured
	// phase and the check (the self-test corrupts answers there).
	beforeCheck func(workload)
}

// workload is one benchmark scenario. setup may run several times (each
// followed by teardown except the last) so set-up time is a median.
type workload interface {
	setup(ctx context.Context) error
	teardown()
	// measure runs the closed loop for d, replacing the samples the
	// end-to-end metrics are computed from and appending every answer to
	// the set check verifies.
	measure(ctx context.Context, d time.Duration) error
	endToEnd() map[string]metric
	// headline is the throughput figure (higher is better) the tracing
	// overhead is computed from.
	headline() float64
	// layers runs the per-layer probes after a traced measure.
	layers(ctx context.Context) (map[string]metric, error)
	// check verifies every recorded answer and returns the failures.
	check(ctx context.Context) []string
	counts() (attempted, failed int64)
}

// setupRounds is how many times a workload is set up per run.
const setupRounds = 7

// Every workload reports the same metrics, the ones BENCHMARK.json lists,
// so the metrics are defined per workload: ops_per_cpu_s counts the
// workload's unit of work (a plan, a read, a tuple) per CPU-second, and
// path_a_ms / path_b_ms are the cost of one operation on the workload's
// two paths (see each workload's endToEnd and the README).
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"max_rss_mb":    "MB",
	"ops_per_cpu_s": "ops/cpu-s",
	"path_a_ms":     "ms",
	"path_b_ms":     "ms",
}

// layerUnits lists every per-layer metric of a traced run. A workload
// reports those of the layers it reaches; the others read 0, since the
// workload spends no time and makes no call there.
var layerUnits = map[string]string{
	"solve.self_ms":                     "ms",
	"solve.graphs_evaluated":            "count",
	"solve.nodes_expanded":              "count",
	"solve.prune_ratio":                 "ratio",
	"solve.blind_solves":                "count",
	"orchestrate.ms":                    "ms",
	"orchestrate.evals":                 "count",
	"orchestrate.memo_hit_ratio":        "ratio",
	"orchestrate.prefixes":              "count",
	"orchestrate.orders_evaluated":      "count",
	"orchestrate.bound_queries":         "count",
	"orchestrate.float_certified_ratio": "ratio",
	"eventgraph.eval_us":                "us",
	"rat.add_ns":                        "ns",
	"service.queue_ms":                  "ms",
	"service.cold_overhead_ms":          "ms",
	"service.plan_call_us":              "us",
	"service.http_read_ms":              "ms",
	"canon.canonicalize_us":             "us",
	"plancache.hit_ratio":               "ratio",
	"cluster.route_overhead_ms":         "ms",
	"cluster.retries":                   "count",
	"cluster.failovers":                 "count",
	"cluster.local_served":              "count",
	"resilience.breaker_opens":          "count",
	"service.drift_solve_ms":            "ms",
	"service.drift_warm_starts":         "count",
	"store.puts":                        "count",
	"gossip.rounds":                     "count",
	"gossip.sync_bytes":                 "bytes",
	"exec.planner_ms":                   "ms",
	"exec.planner_calls":                "count",
	"exec.datapath_ms":                  "ms",
	"exec.swaps":                        "count",
	"sim.verdict_ns":                    "ns",
	"runtime.alloc_mb":                  "MB",
	"trace.overhead_pct":                "%",
	"trace.spans":                       "count",
}

// workloadNames are the workloads newWorkload knows, in BENCHMARK.json's
// order.
var workloadNames = []string{"cold-plan", "routed-serve", "stream-replan"}

func newWorkload(cfg config, tr *tracer) (workload, error) {
	switch cfg.workload {
	case "cold-plan":
		return newColdPlan(cfg, tr), nil
	case "routed-serve":
		return newRoutedServe(cfg, tr), nil
	case "stream-replan":
		return newStreamReplan(cfg, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-plan, routed-serve or stream-replan)", cfg.workload)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "minima" {
		return runMinima(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "cold-plan, routed-serve or stream-replan")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	fs.IntVar(&cfg.clients, "clients", runtime.NumCPU(), "closed-loop clients")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout holding testdata/ and perfbench/")
	fs.StringVar(&cfg.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "parent of the run's temporary directories")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where traced runs write their spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *traceFlag == 1
	cfg.log = stderr
	if cfg.seconds <= 0 || cfg.clients < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds and --clients must be positive, --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runBench(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if ctx.Err() != nil {
			return 130
		}
		return 1
	}
	printResult(stdout, cfg, res)
	return 0
}

// runBench sets the workload up, measures, checks and tears it down. Every
// path out — success, failed check, error, signal — runs the teardown and
// removes the run's temporary directory.
func runBench(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	tr := &tracer{}
	w, err := newWorkload(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer w.teardown()

	// setup_s is the CPU time of a set-up (see cpuSeconds), median of
	// setupRounds; the wall-clock median goes to the log.
	setups := make([]float64, 0, setupRounds)
	setupWalls := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			w.teardown()
		}
		start, cpuStart := time.Now(), cpuSeconds()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSeconds()-cpuStart)
		setupWalls = append(setupWalls, time.Since(start).Seconds())
	}
	fmt.Fprintf(cfg.log, "perfbench: set-up %.4g s wall clock (median of %d)\n", median(setupWalls), setupRounds)

	fmt.Fprintf(cfg.log, "perfbench: measuring %s for %v (seed %d, %d clients, trace %v)\n",
		cfg.workload, cfg.seconds, cfg.seed, cfg.clients, cfg.trace)
	metrics := map[string]metric{}
	var reached []string
	if cfg.trace {
		// Untraced half, then the traced half: the difference in the
		// headline throughput is the tracing overhead.
		half := cfg.seconds / 2
		if err := w.measure(ctx, half); err != nil {
			return nil, err
		}
		untraced := w.headline()
		tr.enable()
		alloc := allocatedMB()
		if err := w.measure(ctx, half); err != nil {
			return nil, err
		}
		metrics["runtime.alloc_mb"] = metric{allocatedMB() - alloc, "MB"}
		traced := w.headline()
		layers, err := w.layers(ctx)
		tr.disable()
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			metrics[k] = v
		}
		metrics["trace.overhead_pct"] = metric{(untraced/traced - 1) * 100, "%"}
		metrics["trace.spans"] = metric{float64(tr.len()), "count"}
		for k := range metrics {
			reached = append(reached, k)
		}
		sort.Strings(reached)
		for k, unit := range layerUnits {
			if _, ok := metrics[k]; !ok {
				metrics[k] = metric{0, unit}
			}
		}
		if err := tr.write(cfg, cfg.log); err != nil {
			return nil, err
		}
	} else {
		if err := w.measure(ctx, cfg.seconds); err != nil {
			return nil, err
		}
		// The peak before the check: set-up and the measured phase,
		// the in-process clients included, but not the check's solves.
		metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
		for k, v := range w.endToEnd() {
			metrics[k] = v
		}
		metrics["setup_s"] = metric{median(setups), "s"}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if cfg.beforeCheck != nil {
		cfg.beforeCheck(w)
	}
	failures := w.check(ctx)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for i, f := range failures {
		if i == 20 {
			fmt.Fprintf(cfg.log, "check: ... %d more\n", len(failures)-i)
			break
		}
		fmt.Fprintln(cfg.log, "check:", f)
	}
	if err := checkFinite(metrics); err != nil {
		return nil, err
	}
	attempted, failed := w.counts()
	return &result{
		Correct:   len(failures) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
		reached:   reached,
	}, nil
}

// printResult writes a readable summary (CPU count, clients, every metric
// with its unit) and then the JSON result as the last line.
func printResult(w io.Writer, cfg config, res *result) {
	fmt.Fprintf(w, "workload=%s seed=%d cpus=%d clients=%d seconds=%g trace=%v attempted=%d failed=%d correct=%v\n",
		cfg.workload, cfg.seed, runtime.NumCPU(), cfg.clients, cfg.seconds.Seconds(), cfg.trace,
		res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res) // finite floats and strings only: cannot fail
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocatedMB is the cumulative heap allocation of the process.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
