package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// stream-replan: exec.Executor runs testdata/webquery8.json with an
// embedded exec.Local planner while two services' true behaviour departs
// from the declared instance, so the drift controller PATCHes and
// hot-swaps the schedule a few times per run. Each round runs the same
// stream once serially (Workers 1) and once with Workers = clients, each
// against a fresh planner.

// streamTuples is the stream length of one executor run.
const streamTuples = 200_000

// streamTruth is the injected drift: C1 costs three times its declared
// value, and C7 passes one tuple in two instead of one in five.
func streamTruth() map[string]exec.Truth {
	cost := rat.I(3)
	sel := rat.New(1, 2)
	return map[string]exec.Truth{"C1": {Cost: &cost}, "C7": {Selectivity: &sel}}
}

// timedPlanner wraps the executor's planner: it times every call, opens a
// span around it, and keeps every returned plan so the check can replay
// each segment of the stream on the graph that ran it.
type timedPlanner struct {
	inner  exec.Planner
	parent span
	nanos  atomic.Int64
	calls  atomic.Int64

	mu    sync.Mutex
	plans map[string]exec.Plan
	first string
}

func (p *timedPlanner) done(start time.Time, sp span, pl exec.Plan, err error) {
	p.nanos.Add(int64(time.Since(start)))
	p.calls.Add(1)
	sp.end()
	if err != nil {
		return
	}
	p.mu.Lock()
	if p.plans == nil {
		p.plans, p.first = map[string]exec.Plan{}, pl.Hash
	}
	p.plans[pl.Hash] = pl
	p.mu.Unlock()
}

func (p *timedPlanner) Plan(ctx context.Context, app *workflow.App, id string) (exec.Plan, error) {
	sp := p.parent.child("exec.planner_plan")
	start := time.Now()
	pl, err := p.inner.Plan(ctx, app, id)
	p.done(start, sp, pl, err)
	return pl, err
}

func (p *timedPlanner) Drift(ctx context.Context, hash string, app *workflow.App, ups []exec.Update, id string) (exec.Plan, error) {
	sp := p.parent.child("exec.planner_drift")
	start := time.Now()
	pl, err := p.inner.Drift(ctx, hash, app, ups, id)
	p.done(start, sp, pl, err)
	return pl, err
}

func (p *timedPlanner) Subscribe(ctx context.Context, hash string) (<-chan exec.Replan, error) {
	return p.inner.Subscribe(ctx, hash)
}

// streamRun is one executor run.
type streamRun struct {
	workers int
	seed    uint64
	report  *exec.Report
	planner *timedPlanner
	traced  bool
}

type streamReplan struct {
	cfg config
	tr  *tracer

	app   *workflow.App
	truth map[string]exec.Truth

	round int

	// Tuples per CPU-second, per wall-clock second and CPU milliseconds
	// of each run, by worker count, current phase; and the phase's tuples
	// and CPU seconds over every run.
	rates, wallRates, cpuMS map[int][]float64
	tuples, cpu             float64

	runs      []streamRun
	errs      []string
	attempted int64
	failed    int64
}

func newStreamReplan(cfg config, tr *tracer) *streamReplan {
	return &streamReplan{cfg: cfg, tr: tr}
}

// setup loads the instance and plans it once on an embedded planner.
func (w *streamReplan) setup(ctx context.Context) error {
	tds, err := loadTestdata(w.cfg.root)
	if err != nil {
		return err
	}
	for _, td := range tds {
		if td.name == "webquery8" {
			w.app = td.app
		}
	}
	w.truth = streamTruth()
	srv := service.New(service.Config{})
	defer srv.Close()
	_, err = newLocal(srv).Plan(ctx, w.app, "")
	return err
}

func (w *streamReplan) teardown() {}

func newLocal(srv *service.Server) *exec.Local {
	return &exec.Local{Server: srv, Params: service.Request{Model: plan.Overlap, Objective: solve.PeriodObjective}}
}

func (w *streamReplan) measure(ctx context.Context, d time.Duration) error {
	w.rates, w.wallRates, w.cpuMS = map[int][]float64{}, map[int][]float64{}, map[int][]float64{}
	w.tuples, w.cpu = 0, 0
	traced := w.tr.on.Load()
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		seed := uint64(w.cfg.seed)*1_000_003 + uint64(w.round)
		w.round++
		for _, workers := range []int{1, w.cfg.clients} {
			if err := w.runOnce(ctx, seed, workers, traced); err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}

func (w *streamReplan) runOnce(ctx context.Context, seed uint64, workers int, traced bool) error {
	srv := service.New(service.Config{})
	defer srv.Close()
	root := w.tr.start("exec.run", 0, fmt.Sprintf("stream-%d-%d", seed, workers))
	tp := &timedPlanner{inner: newLocal(srv), parent: root}
	ex, err := exec.New(exec.Config{App: w.app, Planner: tp, Seed: seed, Workers: workers, Truth: w.truth})
	if err != nil {
		return err
	}
	start, cpuStart := time.Now(), cpuSeconds()
	rep, err := ex.Run(ctx, streamTuples)
	wall, cpu := time.Since(start), cpuSeconds()-cpuStart
	// The check needs the run's plans, not its service: keeping every
	// run's service alive would grow max_rss_mb with the number of runs.
	tp.inner = nil
	root.end()
	w.attempted++
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.failed++
		w.errs = append(w.errs, fmt.Sprintf("stream seed %d workers %d: %v", seed, workers, err))
		return nil
	}
	w.rates[workers] = append(w.rates[workers], float64(rep.Tuples)/cpu)
	w.wallRates[workers] = append(w.wallRates[workers], float64(rep.Tuples)/wall.Seconds())
	w.cpuMS[workers] = append(w.cpuMS[workers], 1e3*cpu)
	w.tuples += float64(rep.Tuples)
	w.cpu += cpu
	w.runs = append(w.runs, streamRun{workers: workers, seed: seed, report: rep, planner: tp, traced: traced})
	return nil
}

// rate is the median throughput per CPU-second (see cpuSeconds) of the
// phase's runs with this many workers.
func (w *streamReplan) rate(workers int) float64 { return median(w.rates[workers]) }

// endToEnd reports the median CPU milliseconds of a serial run (path a)
// and of a run with Workers = clients (path b), each of streamTuples
// tuples, and the tuples per CPU-second over every run. The wall-clock
// rates go to the log only: across ten-seed sets on a shared 2-CPU host
// their spreads reached 0.28 and 0.29, where the CPU-second rates held at
// 0.03-0.10.
func (w *streamReplan) endToEnd() map[string]metric {
	fmt.Fprintf(w.cfg.log, "stream-replan: %.4g tuples/s serial, %.4g tuples/s with %d workers, wall clock\n",
		median(w.wallRates[1]), median(w.wallRates[w.cfg.clients]), w.cfg.clients)
	return map[string]metric{
		"path_a_ms":     {median(w.cpuMS[1]), "ms"},
		"path_b_ms":     {median(w.cpuMS[w.cfg.clients]), "ms"},
		"ops_per_cpu_s": {w.tuples / w.cpu, "ops/cpu-s"},
	}
}

func (w *streamReplan) headline() float64 { return w.rate(1) }

func (w *streamReplan) counts() (int64, int64) { return w.attempted, w.failed }

// verdictSink keeps the verdict loop's result alive.
var verdictSink bool

func (w *streamReplan) layers(ctx context.Context) (map[string]metric, error) {
	var plannerMS, calls, datapathMS, swaps []float64
	for _, r := range w.runs {
		if !r.traced || r.workers != 1 {
			continue
		}
		p := time.Duration(r.planner.nanos.Load())
		plannerMS = append(plannerMS, ms(p))
		calls = append(calls, float64(r.planner.calls.Load()))
		datapathMS = append(datapathMS, ms(r.report.Elapsed-p))
		swaps = append(swaps, float64(r.report.Swaps))
	}
	if len(plannerMS) == 0 {
		return nil, fmt.Errorf("no traced stream runs")
	}
	// sim.Verdict over the instance's services, as the data path calls it.
	names := make([]string, w.app.N())
	thresholds := make([]uint64, w.app.N())
	for v := range names {
		names[v] = w.app.Name(v)
		thresholds[v] = sim.Threshold(w.app.Selectivity(v))
	}
	const verdicts = 1 << 20
	sp := w.tr.start("sim.verdict", 0, "")
	t0 := time.Now()
	pass := false
	for t := uint64(0); t < verdicts; t++ {
		v := int(t) % len(names)
		pass = pass != sim.Verdict(uint64(w.cfg.seed), names[v], t, thresholds[v])
	}
	verdictNS := float64(time.Since(t0)) / verdicts
	sp.end()
	verdictSink = pass
	return map[string]metric{
		"exec.planner_ms":    {mean(plannerMS), "ms"},
		"exec.planner_calls": {mean(calls), "count"},
		"exec.datapath_ms":   {mean(datapathMS), "ms"},
		"exec.swaps":         {mean(swaps), "count"},
		"sim.verdict_ns":     {verdictNS, "ns"},
	}, nil
}

// check replays every serial run through sim.ReferenceStream, segment by
// segment between the recorded swaps, and requires each parallel run's
// report to equal its serial twin apart from wall-clock fields.
func (w *streamReplan) check(ctx context.Context) []string {
	fails := append([]string(nil), w.errs...)
	serial := map[uint64]*exec.Report{}
	for _, r := range w.runs {
		if r.workers == 1 {
			serial[r.seed] = r.report
			if err := checkStream(w.app, w.truth, r.seed, r.report, r.planner); err != nil {
				fails = append(fails, fmt.Sprintf("stream seed %d: %v", r.seed, err))
			}
		}
	}
	for _, r := range w.runs {
		if r.workers == 1 {
			continue
		}
		s, ok := serial[r.seed]
		if !ok {
			fails = append(fails, fmt.Sprintf("stream seed %d: no serial run", r.seed))
			continue
		}
		if err := sameReport(s, r.report); err != nil {
			fails = append(fails, fmt.Sprintf("stream seed %d workers %d: %v", r.seed, r.workers, err))
		}
	}
	return fails
}

// checkStream compares a run's per-service and emitted counts with the
// serial reference executed on each segment's graph.
func checkStream(app *workflow.App, truth map[string]exec.Truth, seed uint64, rep *exec.Report, p *timedPlanner) error {
	// The true pass fraction of every service: declared at the start of
	// the run unless overridden (re-plans change what is declared, never
	// what is true).
	sels := map[string]rat.Rat{}
	for v := 0; v < app.N(); v++ {
		sels[app.Name(v)] = app.Selectivity(v)
	}
	for name, t := range truth {
		if t.Selectivity != nil {
			sels[name] = *t.Selectivity
		}
	}
	hashes := []string{p.first}
	bounds := []uint64{0}
	for _, ep := range rep.Episodes {
		hashes = append(hashes, ep.NewHash)
		bounds = append(bounds, ep.Tuple)
	}
	bounds = append(bounds, rep.Tuples)
	in, out := map[string]uint64{}, map[string]uint64{}
	var completed, emitted uint64
	for i, h := range hashes {
		pl, ok := p.plans[h]
		if !ok {
			return fmt.Errorf("segment %d ran plan %s the planner never returned", i, h)
		}
		c := sim.ReferenceStream(pl.App, pl.Graph, seed, bounds[i], bounds[i+1]-bounds[i], sels)
		for k, v := range c.In {
			in[k] += v
		}
		for k, v := range c.Out {
			out[k] += v
		}
		completed += c.Completed
		emitted += c.Emitted
	}
	if completed != rep.Tuples || emitted != rep.Emitted {
		return fmt.Errorf("tuples/emitted %d/%d, reference %d/%d", rep.Tuples, rep.Emitted, completed, emitted)
	}
	if len(rep.Services) != app.N() {
		return fmt.Errorf("report lists %d services, instance has %d", len(rep.Services), app.N())
	}
	for _, s := range rep.Services {
		if s.In != in[s.Name] || s.Out != out[s.Name] {
			return fmt.Errorf("service %s in/out %d/%d, reference %d/%d", s.Name, s.In, s.Out, in[s.Name], out[s.Name])
		}
	}
	if rep.Swaps == 0 {
		return fmt.Errorf("the injected drift triggered no re-plan")
	}
	return nil
}

// sameReport compares two reports apart from their wall-clock fields.
func sameReport(a, b *exec.Report) error {
	x, y := *a, *b
	x.Elapsed, y.Elapsed, x.Throughput, y.Throughput = 0, 0, 0, 0
	if !reflect.DeepEqual(x, y) {
		return fmt.Errorf("report differs from the serial run")
	}
	return nil
}
