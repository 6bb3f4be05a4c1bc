package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/oplist"
	"repro/internal/orchestrate"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// cold-plan: a fresh filterd receives distinct seeded instances, so every
// request is a cold solve. Each round starts a new service on a loopback
// listener and sends it one fixed mix of instance classes; the clients
// drain the round together and the next round starts when both are done.

// coldSpec is one request of a round.
type coldSpec struct {
	name  string
	app   *workflow.App
	model plan.Model
	obj   solve.Objective
	// small marks n ≤ 6: inside Auto's exact band, so the served value
	// is checked against the family minimum.
	small bool
}

var allModels = []plan.Model{plan.Overlap, plan.InOrder, plan.OutOrder}
var allObjectives = []solve.Objective{solve.PeriodObjective, solve.LatencyObjective}

// testdataFiles are the shipped instances every round also plans.
var testdataFiles = []string{"mixed6.json", "webquery8.json", "expanding12.json"}

type namedApp struct {
	name string
	app  *workflow.App
}

func loadTestdata(root string) ([]namedApp, error) {
	var out []namedApp
	for _, f := range testdataFiles {
		data, err := os.ReadFile(filepath.Join(root, "testdata", f))
		if err != nil {
			return nil, err
		}
		var app workflow.App
		if err := json.Unmarshal(data, &app); err != nil {
			return nil, fmt.Errorf("testdata/%s: %w", f, err)
		}
		out = append(out, namedApp{strings.TrimSuffix(f, ".json"), &app})
	}
	return out, nil
}

// coldRound generates round r of the seeded request mix, most expensive
// classes first so the two clients finish a round close together:
//   - the testdata instances (OVERLAP period);
//   - branch and bound, in odd rounds: one n = 5 instance with
//     precedence (DAG family, inside Auto's branch-and-bound band),
//     cycling over model × objective × profile from a seeded start. Its
//     oracle costs seconds, so it is not in every round;
//   - small: every model × objective × with/without precedence ×
//     filtering/expanding profile, n = 5 for forests (period without
//     precedence) and n = 4 for DAG families (blind enumeration);
//   - large: every model × objective without precedence plus OVERLAP
//     period with precedence, each at n = 8, 10 and 12 (outside the
//     exact band: hill climbing). Every round has the same mix, so the
//     mean latency of a run does not depend on how many rounds it holds.
func coldRound(seed int64, r int, testdata []namedApp) []coldSpec {
	rng := gen.NewRand(seed*1_000_003 + int64(r)*7_919 + 17)
	var specs []coldSpec
	for _, td := range testdata {
		specs = append(specs, coldSpec{name: td.name, app: td.app, model: plan.Overlap,
			obj: solve.PeriodObjective, small: td.app.N() <= 6})
	}
	profiles := []gen.Profile{gen.Filtering, gen.Expanding}
	if r%2 == 1 {
		c := int((uint64(seed) + uint64(r/2)) % 12)
		m, obj, prof := allModels[c%3], allObjectives[c/3%2], profiles[c/6]
		specs = append(specs, coldSpec{
			name:  fmt.Sprintf("bnb-%s-%s-%s-prec=true", prof, strings.ToLower(m.String()), obj),
			app:   genApp(rng, 5, prof, true),
			model: m, obj: obj, small: true,
		})
	}
	for _, prof := range profiles {
		for _, m := range allModels {
			for _, obj := range allObjectives {
				for _, prec := range []bool{false, true} {
					n := 4
					if obj == solve.PeriodObjective && !prec {
						n = 5
					}
					specs = append(specs, coldSpec{
						name:  fmt.Sprintf("small-%s-%s-%s-prec=%v", prof, strings.ToLower(m.String()), obj, prec),
						app:   genApp(rng, n, prof, prec),
						model: m, obj: obj, small: true,
					})
				}
			}
		}
	}
	for i, n := range []int{8, 10, 12} {
		for _, m := range allModels {
			for _, obj := range allObjectives {
				prof := profiles[(r+i)%2]
				specs = append(specs, coldSpec{
					name: fmt.Sprintf("large%d-%s-%s", n, strings.ToLower(m.String()), obj),
					app:  genApp(rng, n, prof, false), model: m, obj: obj,
				})
			}
		}
		specs = append(specs, coldSpec{name: fmt.Sprintf("large%d-overlap-period-prec", n),
			app: genApp(rng, n, gen.Filtering, true), model: plan.Overlap, obj: solve.PeriodObjective})
	}
	return specs
}

// genApp draws an instance; with precedence it redraws until at least one
// constraint exists.
func genApp(rng *rand.Rand, n int, prof gen.Profile, prec bool) *workflow.App {
	if !prec {
		return gen.App(rng, n, prof)
	}
	for {
		app := gen.AppWithPrecedence(rng, n, prof, 0.4)
		if app.HasPrecedence() {
			return app
		}
	}
}

// coldAnswer is one served request and what the check needs of it.
type coldAnswer struct {
	spec    coldSpec
	doc     planDoc
	explain explainDoc
	wall    time.Duration
	traced  bool
}

type coldPlan struct {
	cfg config
	tr  *tracer

	testdata []namedApp
	minima   map[string]string
	client   *http.Client
	res      stack

	round int // next round to generate, across measured phases

	small, large []float64 // ms, current phase
	plans        int
	busy         time.Duration // summed round wall time, current phase
	// Process CPU seconds of the rounds' small and large groups.
	smallCPU, largeCPU float64

	mu        sync.Mutex
	answers   []coldAnswer
	errs      []string
	attempted int64
	failed    int64
}

func newColdPlan(cfg config, tr *tracer) *coldPlan { return &coldPlan{cfg: cfg, tr: tr} }

// setup loads the inputs and the stored oracle and proves a fresh service
// answers on a loopback listener.
func (w *coldPlan) setup(ctx context.Context) error {
	var err error
	if w.testdata, err = loadTestdata(w.cfg.root); err != nil {
		return err
	}
	if w.minima, err = loadMinima(w.cfg.root); err != nil {
		return err
	}
	client, transport := newClient(w.cfg.clients)
	w.client = client
	w.res.push(transport.CloseIdleConnections)
	srv, lb, err := startService()
	if err != nil {
		return err
	}
	defer func() { lb.close(); srv.Close() }()
	var h struct {
		Status string `json:"status"`
	}
	return getJSON(ctx, w.client, lb.URL+"/v1/healthz", &h)
}

func (w *coldPlan) teardown() { w.res.release() }

// startService starts a filterd with default settings on a loopback
// listener.
func startService() (*service.Server, *loopback, error) {
	srv := service.New(service.Config{})
	lb, err := startLoopback(service.Handler(srv))
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, lb, nil
}

func planBody(app *workflow.App, m plan.Model, obj solve.Objective, extra string) ([]byte, error) {
	inst, err := json.Marshal(app)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf(`{"instance": %s, "model": %q, "objective": %q%s}`,
		inst, strings.ToLower(m.String()), obj.String(), extra)), nil
}

func (w *coldPlan) measure(ctx context.Context, d time.Duration) error {
	w.small, w.large, w.plans, w.busy, w.smallCPU, w.largeCPU = nil, nil, 0, 0, 0, 0
	traced := w.tr.on.Load()
	start := time.Now()
	for time.Since(start) < d {
		if err := w.runRound(ctx, traced); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// runRound serves one round on a fresh service. Only the requests are
// timed; the explain records are fetched after the round's last answer.
func (w *coldPlan) runRound(ctx context.Context, traced bool) error {
	r := w.round
	w.round++
	specs := coldRound(w.cfg.seed, r, w.testdata)
	bodies := make([][]byte, len(specs))
	for i, s := range specs {
		var err error
		if bodies[i], err = planBody(s.app, s.model, s.obj, ""); err != nil {
			return err
		}
	}
	srv, lb, err := startService()
	if err != nil {
		return err
	}
	defer func() { lb.close(); srv.Close() }()

	answers := make([]*coldAnswer, len(specs))
	// The small and the large requests are served as two groups, each
	// drained by every client, so each group's CPU time is its own.
	var small, large []int
	for i, s := range specs {
		if s.small {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	serve := func(group []int) float64 {
		cpuStart := cpuSeconds()
		var next atomic.Int64
		allClients(w.cfg.clients, func(int) {
			for {
				k := int(next.Add(1) - 1)
				if k >= len(group) || ctx.Err() != nil {
					return
				}
				i := group[k]
				reqID := fmt.Sprintf("cold-%d-%d-%d", w.cfg.seed, r, i)
				root := w.tr.start("client.plan", 0, reqID)
				sp := root.child("service.post_plan")
				t0 := time.Now()
				code, data, err := call(ctx, w.client, http.MethodPost, lb.URL+"/v1/plan", reqID, bodies[i])
				wall := time.Since(t0)
				sp.end()
				a := &coldAnswer{spec: specs[i], wall: wall, traced: traced}
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d: %s", code, strings.TrimSpace(string(data)))
				}
				if err == nil {
					err = json.Unmarshal(data, &a.doc)
				}
				root.end()
				w.mu.Lock()
				w.attempted++
				if err != nil {
					w.failed++
					w.errs = append(w.errs, fmt.Sprintf("round %d %s: %v", r, specs[i].name, err))
				} else {
					answers[i] = a
				}
				w.mu.Unlock()
			}
		})
		return cpuSeconds() - cpuStart
	}
	roundStart := time.Now()
	w.smallCPU += serve(small)
	w.largeCPU += serve(large)
	w.busy += time.Since(roundStart)
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, a := range answers {
		if a == nil {
			continue
		}
		sp := w.tr.start("service.explain", 0, "")
		err := getJSON(ctx, w.client, lb.URL+"/v1/explain/"+a.doc.Hash, &a.explain)
		sp.end()
		if err != nil {
			return fmt.Errorf("explain %s: %w", a.spec.name, err)
		}
		w.plans++
		if a.spec.small {
			w.small = append(w.small, ms(a.wall))
		} else {
			w.large = append(w.large, ms(a.wall))
		}
		w.answers = append(w.answers, *a)
	}
	return nil
}

// endToEnd reports the CPU milliseconds per small plan (path a) and per
// large plan (path b) and the plans per CPU-second (see cpuSeconds). The wall-clock figures go
// to the log only: in a period of 20% steal, the small p50 and the large
// mean latency spread by 0.26 across ten seeds.
func (w *coldPlan) endToEnd() map[string]metric {
	fmt.Fprintf(w.cfg.log, "cold-plan: %.4g plans/s wall clock, small p50 %.4g ms, large p50 %.4g ms, large mean %.4g ms\n",
		float64(w.plans)/w.busy.Seconds(), median(w.small), median(w.large), mean(w.large))
	return map[string]metric{
		"path_a_ms":     {1e3 * w.smallCPU / float64(len(w.small)), "ms"},
		"path_b_ms":     {1e3 * w.largeCPU / float64(len(w.large)), "ms"},
		"ops_per_cpu_s": {w.headline(), "ops/cpu-s"},
	}
}

func (w *coldPlan) headline() float64 { return float64(w.plans) / (w.smallCPU + w.largeCPU) }

func (w *coldPlan) counts() (int64, int64) { return w.attempted, w.failed }

// layers derives the solver, orchestration and service figures from the
// traced phase's explain records, and times the event-graph evaluation of
// each returned plan and rational arithmetic on the workload's volumes.
func (w *coldPlan) layers(ctx context.Context) (map[string]metric, error) {
	var (
		selfMS, orchMS, queueMS, overheadMS, egUS                                           []float64
		evaluated, expanded, pruned, evals, memoHits, prefixes, orders, certified, fallback float64
		blind, n                                                                            float64
		volumes                                                                             []rat.Rat
	)
	for _, a := range w.answers {
		if !a.traced {
			continue
		}
		e := a.explain
		if e.Timings == nil || e.Solver == nil || e.Orch == nil {
			return nil, fmt.Errorf("explain record of %s carries no effort", a.spec.name)
		}
		n++
		selfMS = append(selfMS, (e.Timings.Solve-e.Timings.Orch)*1e3)
		orchMS = append(orchMS, e.Timings.Orch*1e3)
		queueMS = append(queueMS, e.Timings.Queue*1e3)
		overheadMS = append(overheadMS, ms(a.wall)-(e.Timings.Queue+e.Timings.Solve)*1e3)
		evaluated += float64(e.Solver.Evaluated)
		expanded += float64(e.Solver.Expanded)
		pruned += float64(e.Solver.Pruned)
		evals += float64(e.Orch.Orchestrations)
		memoHits += float64(e.Orch.MemoHits)
		prefixes += float64(e.Orch.Prefixes)
		orders += float64(e.Orch.Evaluated)
		certified += float64(e.Orch.FilterCertified)
		fallback += float64(e.Orch.FilterFallback)
		if strings.HasPrefix(e.Method, "exact-") {
			blind++
		}
		inst, err := canon.Canonicalize(a.spec.app)
		if err != nil {
			return nil, err
		}
		if a.spec.model == plan.InOrder {
			sp := w.tr.start("eventgraph.eval", 0, "")
			us, err := eventGraphEvalUS(inst, &a.doc)
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("event-graph evaluation of %s: %w", a.spec.name, err)
			}
			egUS = append(egUS, us)
		}
		for i := 0; i < inst.N(); i++ {
			volumes = append(volumes, inst.App().Cost(i), inst.App().Selectivity(i))
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("no traced answers")
	}
	return map[string]metric{
		"solve.self_ms":                     {mean(selfMS), "ms"},
		"solve.graphs_evaluated":            {evaluated / n, "count"},
		"solve.nodes_expanded":              {expanded / n, "count"},
		"solve.prune_ratio":                 {ratio(pruned, expanded), "ratio"},
		"solve.blind_solves":                {blind, "count"},
		"orchestrate.ms":                    {mean(orchMS), "ms"},
		"orchestrate.evals":                 {evals / n, "count"},
		"orchestrate.memo_hit_ratio":        {ratio(memoHits, evals), "ratio"},
		"orchestrate.prefixes":              {prefixes / n, "count"},
		"orchestrate.orders_evaluated":      {orders / n, "count"},
		"orchestrate.bound_queries":         {(certified + fallback) / n, "count"},
		"orchestrate.float_certified_ratio": {ratio(certified, certified+fallback), "ratio"},
		"eventgraph.eval_us":                {mean(egUS), "us"},
		"rat.add_ns":                        {ratArithNS(volumes), "ns"},
		"service.queue_ms":                  {mean(queueMS), "ms"},
		"service.cold_overhead_ms":          {mean(overheadMS), "ms"},
	}, nil
}

// eventGraphEvalUS times one orchestrate.InOrderPeriodWithOrders call —
// the event graph's Howard cycle-ratio solve, potentials and validation —
// on an INORDER answer's graph, with the communication orders its
// schedule realizes.
func eventGraphEvalUS(inst *canon.Instance, doc *planDoc) (float64, error) {
	eg, err := planGraph(inst, doc)
	if err != nil {
		return 0, err
	}
	wt := eg.Weighted()
	l, err := oplist.LoadList(wt, doc.Schedule)
	if err != nil {
		return 0, err
	}
	orders := orchestrate.DefaultOrders(wt)
	for v := 0; v < wt.N(); v++ {
		for _, s := range [][]int{orders.In[v], orders.Out[v]} {
			sort.SliceStable(s, func(i, j int) bool { return l.CommBegin(s[i]).Less(l.CommBegin(s[j])) })
		}
	}
	t0 := time.Now()
	if _, err := orchestrate.InOrderPeriodWithOrders(wt, orders); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / 1e3, nil
}

// ratSink keeps the arithmetic loop's result alive.
var ratSink rat.Rat

// ratArithNS times one rat Add plus one Mul over every ordered pair of
// the given operands and returns nanoseconds per operation.
func ratArithNS(ops []rat.Rat) float64 {
	if len(ops) > 256 {
		ops = ops[:256]
	}
	acc := rat.Zero
	count := 0
	t0 := time.Now()
	for rep := 0; rep < 4; rep++ {
		for _, a := range ops {
			for _, b := range ops {
				acc = a.Add(b)
				acc = acc.Mul(b)
				count += 2
			}
		}
	}
	d := time.Since(t0)
	ratSink = acc
	return float64(d) / float64(count)
}

// check verifies every answer: the schedule on its own, the outcome is a
// cold solve, and for small instances the value is the family minimum.
func (w *coldPlan) check(ctx context.Context) []string {
	fails := append([]string(nil), w.errs...)
	type oracleJob struct {
		a   *coldAnswer
		app *workflow.App
		key string
		fam string
	}
	var jobs []oracleJob
	for i := range w.answers {
		a := &w.answers[i]
		inst, err := canon.Canonicalize(a.spec.app)
		if err == nil {
			err = checkSchedule(inst, a.spec.model, a.spec.obj, &a.doc)
		}
		if err == nil && a.doc.Outcome != "miss" {
			err = fmt.Errorf("outcome %q, want a cold solve (miss)", a.doc.Outcome)
		}
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", a.spec.name, err))
			continue
		}
		if !a.spec.small {
			continue
		}
		fam := familyOf(a.explain.Method, a.explain.Family)
		if fam == "" {
			fails = append(fails, fmt.Sprintf("%s: method %s is outside the exact band", a.spec.name, a.explain.Method))
			continue
		}
		jobs = append(jobs, oracleJob{a, inst.App(), minimaKey(a.doc.Hash, a.spec.model, a.spec.obj, fam), fam})
	}
	// Stored minima first; the rest are enumerated on the clients' CPUs.
	var mu sync.Mutex
	var todo []oracleJob
	for _, j := range jobs {
		if v, ok := w.minima[j.key]; ok {
			if err := compareMinimum(j.a, v); err != nil {
				fails = append(fails, err.Error())
			}
			continue
		}
		todo = append(todo, j)
	}
	sort.SliceStable(todo, func(i, k int) bool { return todo[i].app.N() > todo[k].app.N() })
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(todo) {
					return
				}
				j := todo[i]
				v, err := familyMinimum(ctx, j.app, j.a.spec.model, j.a.spec.obj, j.fam)
				if err == nil {
					err = compareMinimum(j.a, v.String())
				}
				if err != nil {
					mu.Lock()
					fails = append(fails, err.Error())
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return fails
}

func compareMinimum(a *coldAnswer, want string) error {
	if a.doc.Value.String() != want {
		return fmt.Errorf("%s: value %s, family minimum %s", a.spec.name, a.doc.Value, want)
	}
	return nil
}
