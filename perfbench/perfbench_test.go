package main

// The benchmark's self-test: a short run of every workload, runs in which
// one answer is corrupted before the check (the check must fail, and each
// check must catch the corruption on its own), and process hygiene — no
// listener, goroutine or temporary directory survives a run, whether it
// ends in success, in a failed check or in SIGINT/SIGTERM.
//
//	cd perfbench && go test ./...

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/rat"
)

// layerNames are the per-layer metrics each workload measures itself.
var layerNames = map[string][]string{
	"cold-plan": {"solve.self_ms", "solve.graphs_evaluated", "solve.nodes_expanded", "solve.prune_ratio",
		"solve.blind_solves", "orchestrate.ms", "orchestrate.evals", "orchestrate.memo_hit_ratio",
		"orchestrate.prefixes", "orchestrate.orders_evaluated", "orchestrate.bound_queries",
		"orchestrate.float_certified_ratio", "eventgraph.eval_us", "rat.add_ns", "service.queue_ms",
		"service.cold_overhead_ms"},
	"routed-serve": {"service.plan_call_us", "service.http_read_ms", "canon.canonicalize_us",
		"plancache.hit_ratio", "cluster.route_overhead_ms", "cluster.retries", "cluster.failovers",
		"cluster.local_served", "resilience.breaker_opens", "service.drift_solve_ms",
		"service.drift_warm_starts", "store.puts", "gossip.rounds", "gossip.sync_bytes"},
	"stream-replan": {"exec.planner_ms", "exec.planner_calls", "exec.datapath_ms", "exec.swaps", "sim.verdict_ns"},
}

func testConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: workload,
		seed:     11,
		seconds:  time.Second,
		trace:    trace,
		clients:  2,
		root:     "..",
		tmp:      filepath.Join(dir, "tmp"),
		traceDir: filepath.Join(dir, "traces"),
		log:      io.Discard,
	}
}

// runClean runs one benchmark and requires that it left nothing behind.
func runClean(t *testing.T, cfg config) *result {
	t.Helper()
	before := runtime.NumGoroutine()
	res, err := runBench(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	requireClean(t, cfg.tmp, before)
	return res
}

// requireClean checks that no loopback listener is open, the temporary
// directory is empty, and the goroutine count has returned to its level
// before the run.
func requireClean(t *testing.T, tmp string, goroutines int) {
	t.Helper()
	if n := openListeners.Load(); n != 0 {
		t.Errorf("%d listeners still open", n)
	}
	entries, err := os.ReadDir(tmp)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("temporary entry left behind: %s", e.Name())
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

func TestShortRuns(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := runClean(t, testConfig(t, wl, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndUnits
			if trace {
				want = layerUnits
				if got, own := strings.Join(res.reached, " "), strings.Join(sorted(append(
					[]string{"runtime.alloc_mb", "trace.overhead_pct", "trace.spans"}, layerNames[wl]...)), " "); got != own {
					t.Errorf("%s: measured per-layer metrics\n  %s\nwant\n  %s", wl, got, own)
				}
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, name, m, unit)
				} else if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v", wl, name, m.Value)
				}
			}
			if wl == "cold-plan" && trace {
				// The odd rounds' branch-and-bound instance must reach that search.
				for _, name := range []string{"solve.nodes_expanded", "solve.graphs_evaluated"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("cold-plan: %s = %v, want branch-and-bound effort", name, res.Metrics[name].Value)
					}
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestManifest requires the metrics every workload prints to be those of
// BENCHMARK.json, with the same units, and its workloads to be those the
// benchmark runs.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		want  map[string]string
		names []struct{ Name, Unit string }
	}{{"end_to_end", endToEndUnits, m.EndToEnd}, {"per_layer", layerUnits, m.PerLayer}} {
		got := map[string]string{}
		for _, n := range c.names {
			got[n.Name] = n.Unit
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s in BENCHMARK.json:\n  %v\nthe benchmark prints:\n  %v", c.kind, got, c.want)
		}
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads in BENCHMARK.json %v, the benchmark runs %v", names, workloadNames)
	}
}

func sorted(v []string) []string {
	sort.Strings(v)
	return v
}

// corrupted runs a workload, lets corrupt alter one answer before the
// check, and requires the run to report incorrect output and still clean
// up.
func corrupted(t *testing.T, wl string, corrupt func(t *testing.T, w workload)) {
	t.Helper()
	cfg := testConfig(t, wl, false)
	cfg.beforeCheck = func(w workload) { corrupt(t, w) }
	res := runClean(t, cfg)
	if res.Correct {
		t.Fatalf("%s: the check passed a corrupted answer", wl)
	}
}

func TestCorruptColdValue(t *testing.T) {
	corrupted(t, "cold-plan", func(t *testing.T, w workload) {
		cp := w.(*coldPlan)
		for i := range cp.answers {
			a := &cp.answers[i]
			if !a.spec.small {
				continue
			}
			a.doc.Value = a.doc.Value.Add(rat.New(1, 7))
			inst, err := canon.Canonicalize(a.spec.app)
			if err != nil {
				t.Fatal(err)
			}
			// Each check on its own: the value no longer follows from the
			// schedule, and it is no longer the family minimum.
			if checkSchedule(inst, a.spec.model, a.spec.obj, &a.doc) == nil {
				t.Error("schedule check passed a corrupted value")
			}
			fam := familyOf(a.explain.Method, a.explain.Family)
			v, err := familyMinimum(context.Background(), inst.App(), a.spec.model, a.spec.obj, fam)
			if err != nil {
				t.Fatal(err)
			}
			if compareMinimum(a, v.String()) == nil {
				t.Error("oracle check passed a corrupted value")
			}
			return
		}
		t.Fatal("no small answer")
	})
}

func TestCorruptColdScheduleByte(t *testing.T) {
	corrupted(t, "cold-plan", func(t *testing.T, w workload) {
		// The first answer is a period request: change one digit of its
		// schedule's period (lambda).
		a := &w.(*coldPlan).answers[0]
		corruptDigit(a.doc.Schedule, `"lambda":`)
		inst, err := canon.Canonicalize(a.spec.app)
		if err != nil {
			t.Fatal(err)
		}
		if checkSchedule(inst, a.spec.model, a.spec.obj, &a.doc) == nil {
			t.Error("schedule check passed a corrupted schedule")
		}
	})
}

func TestCorruptRoutedRead(t *testing.T) {
	corrupted(t, "routed-serve", func(t *testing.T, w workload) {
		rs := w.(*routedServe)
		doc := rs.pool[0].refDoc
		doc.Value = doc.Value.Add(rat.One)
		if directCheck(context.Background(), rs.pool[0].inst.App(), doc, doc.Hash) == nil {
			t.Error("direct-solve check passed a corrupted read")
		}
	})
}

func TestCorruptRoutedDrift(t *testing.T) {
	corrupted(t, "routed-serve", func(t *testing.T, w workload) {
		rs := w.(*routedServe)
		if len(rs.driftAns) == 0 {
			t.Fatal("no drift answers")
		}
		corruptDigit(rs.driftAns[0].doc.Plan.Schedule, `"end":`)
	})
}

// corruptDigit changes the first digit after the first occurrence of key
// in a JSON document (d becomes d+1 mod 10).
func corruptDigit(doc []byte, key string) {
	i := strings.Index(string(doc), key) + len(key)
	j := i + strings.IndexAny(string(doc[i:]), "0123456789")
	doc[j] = "1234567890"[doc[j]-'0']
}

func TestCorruptStreamCount(t *testing.T) {
	corrupted(t, "stream-replan", func(t *testing.T, w workload) {
		sr := w.(*streamReplan)
		r := sr.runs[0]
		r.report.Services[0].Out++
		if checkStream(sr.app, sr.truth, r.seed, r.report, r.planner) == nil {
			t.Error("reference check passed a corrupted count")
		}
		if sameReport(sr.runs[0].report, sr.runs[1].report) == nil {
			t.Error("serial/parallel check passed a corrupted count")
		}
	})
}

// TestSignalsCleanUp runs the built command, interrupts it mid-run, and
// requires it to exit without a result and without leaving its
// temporary directories.
func TestSignalsCleanUp(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "perfbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		workload string
		sig      syscall.Signal
	}{{"routed-serve", syscall.SIGINT}, {"cold-plan", syscall.SIGTERM}, {"stream-replan", syscall.SIGINT}} {
		tmp := filepath.Join(t.TempDir(), "tmp")
		cmd := exec.Command(bin, "--workload", tc.workload, "--seconds", "60", "--root", "..", "--tmp", tmp)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stdout strings.Builder
		cmd.Stdout = &stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "measuring") {
				break
			}
		}
		time.Sleep(500 * time.Millisecond)
		if err := cmd.Process.Signal(tc.sig); err != nil {
			t.Fatal(err)
		}
		go io.Copy(io.Discard, stderr)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err = <-done:
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("%s did not exit after %v", tc.workload, tc.sig)
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
			t.Errorf("%s after %v: exit %v, want status 130", tc.workload, tc.sig, err)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%s printed a result after %v", tc.workload, tc.sig)
		}
		entries, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%s left %s behind after %v", tc.workload, e.Name(), tc.sig)
		}
	}
}
