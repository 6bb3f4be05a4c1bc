package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/store"
	"repro/internal/workflow"
)

// routed-serve: a cluster router with R = 2 over three filterd replicas
// (each with a persistent store and a gossip agent). Set-up pre-solves a
// read pool that fits the plan cache and lets gossip copy it to every
// owner, so reads are cache hits. One operation in routedWriteEvery is a
// drift PATCH carrying an update no other PATCH carries; each client issues
// its PATCHes at its own offset in the cycle, so they overlap the other
// clients' reads. The share is an assumption: the repository records no
// caller traffic to take it from. The first half of a measured phase runs
// healthy; then one replica is stopped and reads walk the owner ladder.

const (
	routedReplicas   = 3
	routedPoolSize   = 96 // default plan cache: 256 entries per replica
	routedPoolN      = 5  // services per pool instance
	routedWriteEvery = 50 // one drift PATCH per 50 operations
	routedStopped    = 1  // the replica stopped for the degraded half
)

// routedParams are the solve parameters of every request: branch and
// bound, so drift re-plans are warm-started.
const routedParams = `, "method": "branch-bound"`

type replica struct {
	srv    *service.Server
	st     *store.Store
	reg    *metrics.Registry
	lb     *loopback
	gossip *cluster.Gossip
	down   bool
}

// stop closes the replica's gossip agent, listener and service.
func (r *replica) stop() {
	if r.down {
		return
	}
	r.down = true
	r.gossip.Close()
	r.lb.close()
	r.srv.Close()
}

type poolItem struct {
	app  *workflow.App
	inst *canon.Instance
	body []byte
	// ref is the first served answer; every later read must equal it,
	// and the check compares it with a direct solve.
	ref    *directAnswer
	refDoc *planDoc
}

// driftAnswer is one PATCH and its answer.
type driftAnswer struct {
	base    int
	service string
	cost    rat.Rat
	doc     driftDoc
}

type routedServe struct {
	cfg config
	tr  *tracer

	client   *http.Client
	replicas []*replica
	local    *service.Server
	router   *cluster.Router
	gw       *loopback
	res      stack
	degraded bool // a replica was stopped since set-up

	pool []*poolItem
	next []int // per client: operations issued so far

	// Samples of the current phase: healthy reads with their completion
	// time since the healthy half began, degraded reads, drifts (ms).
	reads                 []timedSample
	degradedReads, drifts []float64
	healthy               time.Duration // length of the healthy half
	healthyCPU            float64       // process CPU seconds of the healthy half

	mu        sync.Mutex
	driftAns  []driftAnswer
	errs      []string
	attempted int64
	failed    int64

	layerVals map[string]metric
}

func newRoutedServe(cfg config, tr *tracer) *routedServe { return &routedServe{cfg: cfg, tr: tr} }

// routedPool generates the read pool: n = 5 instances without
// precedence (OVERLAP period under branch and bound), alternating
// filtering and expanding profiles.
func routedPool(seed int64) ([]*poolItem, error) {
	rng := gen.NewRand(seed*7_777_777 + 3)
	var out []*poolItem
	for i := 0; i < routedPoolSize; i++ {
		prof := []gen.Profile{gen.Filtering, gen.Expanding}[i%2]
		app := gen.App(rng, routedPoolN, prof)
		inst, err := canon.Canonicalize(app)
		if err != nil {
			return nil, err
		}
		body, err := planBody(app, plan.Overlap, solve.PeriodObjective, routedParams)
		if err != nil {
			return nil, err
		}
		out = append(out, &poolItem{app: app, inst: inst, body: body})
	}
	return out, nil
}

// setup starts the replicas, their gossip agents and the router, pre-solves
// the read pool through the router and runs one anti-entropy round on
// every replica so each owner holds the pool.
func (w *routedServe) setup(ctx context.Context) error {
	if w.pool == nil {
		pool, err := routedPool(w.cfg.seed)
		if err != nil {
			return err
		}
		w.pool = pool
		w.next = make([]int, w.cfg.clients)
	}
	client, transport := newClient(w.cfg.clients)
	w.client = client
	w.res.push(transport.CloseIdleConnections)
	w.replicas = nil
	var urls []string
	for i := 0; i < routedReplicas; i++ {
		dir, err := os.MkdirTemp(w.cfg.tmp, "store-*")
		if err != nil {
			return err
		}
		w.res.push(func() { os.RemoveAll(dir) })
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		reg := metrics.New()
		srv := service.New(service.Config{Store: st, Metrics: reg})
		lb, err := startLoopback(service.Handler(srv))
		if err != nil {
			srv.Close()
			return err
		}
		r := &replica{srv: srv, st: st, reg: reg, lb: lb}
		w.replicas = append(w.replicas, r)
		w.res.push(r.stop)
		urls = append(urls, lb.URL)
	}
	for i, r := range w.replicas {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		g, err := cluster.NewGossip(cluster.GossipConfig{Peers: peers, Local: r.srv, Metrics: r.reg, Client: client})
		if err != nil {
			return err
		}
		r.gossip = g
	}
	w.local = service.New(service.Config{})
	w.res.push(w.local.Close)
	rt, err := cluster.New(cluster.Config{Peers: urls, Replicas: 2, Local: w.local, Client: client})
	if err != nil {
		return err
	}
	w.router = rt
	w.res.push(rt.Close)
	if w.gw, err = startLoopback(rt); err != nil {
		return err
	}
	w.res.push(w.gw.close)
	w.degraded = false

	// Pre-solve the pool through the router, the clients sharing it.
	var wg sync.WaitGroup
	errs := make([]error, len(w.pool))
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.pool); i += w.cfg.clients {
				_, err := w.read(ctx, w.pool[i], fmt.Sprintf("presolve-%d", i))
				errs[i] = err
			}
		}(c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("pre-solving pool item %d: %w", i, err)
		}
	}
	for _, r := range w.replicas {
		r.gossip.RunOnce(ctx)
	}
	for _, r := range w.replicas {
		r.gossip.Start()
	}
	return ctx.Err()
}

func (w *routedServe) teardown() { w.res.release() }

// read sends one routed plan request and checks the answer against the
// pool item's reference answer.
func (w *routedServe) read(ctx context.Context, item *poolItem, reqID string) (time.Duration, error) {
	root := w.tr.start("client.read", 0, reqID)
	defer root.end()
	sp := root.child("cluster.post_plan")
	t0 := time.Now()
	code, data, err := call(ctx, w.client, http.MethodPost, w.gw.URL+"/v1/plan", reqID, item.body)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return d, err
	}
	if code != http.StatusOK {
		return d, fmt.Errorf("status %d: %s", code, strings.TrimSpace(string(data)))
	}
	var doc planDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return d, err
	}
	w.mu.Lock()
	ref := item.ref
	if ref == nil {
		item.refDoc = &doc
		item.ref, err = wireAnswer(&doc)
	}
	w.mu.Unlock()
	if ref == nil {
		return d, err
	}
	return d, ref.matches(&doc)
}

// wireAnswer turns a served plan into the comparable form.
func wireAnswer(doc *planDoc) (*directAnswer, error) {
	var sched bytes.Buffer
	if err := json.Compact(&sched, doc.Schedule); err != nil {
		return nil, err
	}
	return &directAnswer{hash: doc.Hash, value: doc.Value, edges: doc.Graph.Edges, schedule: sched.Bytes()}, nil
}

// drift sends the k-th drift PATCH: pool item k mod P, service
// (k / P) mod n, cost scaled by (1000 + f)/1000 with f = k/(P·n) + 1 — no
// two PATCHes of a run carry the same update.
func (w *routedServe) drift(ctx context.Context, k int, reqID string) (time.Duration, *driftAnswer, error) {
	p := len(w.pool)
	base := k % p
	app := w.pool[base].inst.App()
	svc := (k / p) % app.N()
	f := int64(k/(p*app.N())) + 1
	cost := app.Cost(svc).Mul(rat.New(1000+f, 1000))
	name := app.Name(svc)
	body := fmt.Sprintf(`{"updates": [{"service": %q, "cost": %q}], "model": "overlap", "objective": "period"%s}`,
		name, cost.String(), routedParams)
	root := w.tr.start("client.drift", 0, reqID)
	defer root.end()
	sp := root.child("cluster.patch")
	t0 := time.Now()
	code, data, err := call(ctx, w.client, http.MethodPatch,
		w.gw.URL+"/v1/instance/"+w.pool[base].inst.Hash(), reqID, []byte(body))
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return d, nil, err
	}
	if code != http.StatusOK {
		return d, nil, fmt.Errorf("status %d: %s", code, strings.TrimSpace(string(data)))
	}
	a := &driftAnswer{base: base, service: name, cost: cost}
	if err := json.Unmarshal(data, &a.doc); err != nil {
		return d, nil, err
	}
	return d, a, nil
}

// routedCounters is a snapshot of the counters the layer metrics are
// deltas of.
type routedCounters struct {
	hits, misses, storePuts, syncBytes, gossipRounds float64
	retries, failovers, localServed, breakerOpens    float64
	solveSum, solveCount                             float64
}

func (w *routedServe) counters() (routedCounters, error) {
	var c routedCounters
	for _, r := range w.replicas {
		st := r.srv.Stats()
		c.hits += float64(st.Cache.Hits)
		c.misses += float64(st.Cache.Misses)
		c.storePuts += float64(r.st.Stats().Writes)
		c.syncBytes += float64(st.Sync.BytesIn + st.Sync.BytesOut)
		c.gossipRounds += float64(r.gossip.Stats().Rounds)
		var page strings.Builder
		r.reg.WriteTo(&page)
		v, err := promValues(page.String(), "filterd_solve_seconds_sum", "filterd_solve_seconds_count")
		if err != nil {
			return c, err
		}
		c.solveSum += v["filterd_solve_seconds_sum"]
		c.solveCount += v["filterd_solve_seconds_count"]
	}
	rs := w.router.Stats()
	c.retries = float64(rs.Retries)
	c.failovers = float64(rs.ReplicaFailovers + rs.Failovers)
	c.localServed = float64(rs.LocalServed)
	var page strings.Builder
	w.router.Metrics().WriteTo(&page)
	v, err := promValues(page.String(), "filterd_router_breaker_opens_total")
	if err != nil {
		return c, err
	}
	c.breakerOpens = v["filterd_router_breaker_opens_total"]
	return c, nil
}

func (w *routedServe) measure(ctx context.Context, d time.Duration) error {
	if w.degraded {
		// A second measured phase starts from a healthy cluster again.
		w.teardown()
		if err := w.setup(ctx); err != nil {
			return err
		}
	}
	traced := w.tr.on.Load()
	w.reads, w.degradedReads, w.drifts = nil, nil, nil
	w.healthy, w.healthyCPU = 0, 0
	before, err := w.counters()
	if err != nil {
		return err
	}
	warmStarts := 0
	// op issues client c's next operation: every routedWriteEvery-th is
	// a drift PATCH, client c's first after c·routedWriteEvery/clients
	// operations, and the rest are reads of a seeded pool item.
	op := func(c int, degraded bool, start time.Time) {
		i := w.next[c]
		w.next[c]++
		reqID := fmt.Sprintf("routed-%d-%d-%d", w.cfg.seed, c, i)
		var err error
		var dur time.Duration
		if j := i + c*routedWriteEvery/w.cfg.clients; j%routedWriteEvery == routedWriteEvery-1 {
			var a *driftAnswer
			dur, a, err = w.drift(ctx, (j/routedWriteEvery)*w.cfg.clients+c, reqID)
			w.mu.Lock()
			if err == nil {
				w.drifts = append(w.drifts, ms(dur))
				w.driftAns = append(w.driftAns, *a)
				if a.doc.WarmStart {
					warmStarts++
				}
			}
		} else {
			item := w.pool[int(uint64(w.cfg.seed)*2_654_435_761+uint64(c)*40_503+uint64(i)*9_973)%len(w.pool)]
			dur, err = w.read(ctx, item, reqID)
			w.mu.Lock()
			if err == nil {
				if degraded {
					w.degradedReads = append(w.degradedReads, ms(dur))
				} else {
					w.reads = append(w.reads, timedSample{time.Since(start), ms(dur)})
				}
			}
		}
		w.attempted++
		if err != nil && ctx.Err() == nil {
			w.failed++
			w.errs = append(w.errs, fmt.Sprintf("%s: %v", reqID, err))
		}
		w.mu.Unlock()
	}
	// Every client loops on its own for half the phase.
	phase := func(degraded bool) time.Duration {
		start := time.Now()
		allClients(w.cfg.clients, func(c int) {
			for time.Since(start) < d/2 && ctx.Err() == nil {
				op(c, degraded, start)
			}
		})
		return time.Since(start)
	}
	cpuStart := cpuSeconds()
	w.healthy = phase(false)
	w.healthyCPU = cpuSeconds() - cpuStart
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if traced {
		if err := w.probe(ctx); err != nil {
			return err
		}
	}
	w.replicas[routedStopped].stop()
	w.degraded = true
	phase(true)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if traced {
		after, err := w.counters()
		if err != nil {
			return err
		}
		w.layerVals["plancache.hit_ratio"] = metric{ratio(after.hits-before.hits, after.hits-before.hits+after.misses-before.misses), "ratio"}
		w.layerVals["cluster.retries"] = metric{after.retries - before.retries, "count"}
		w.layerVals["cluster.failovers"] = metric{after.failovers - before.failovers, "count"}
		w.layerVals["cluster.local_served"] = metric{after.localServed - before.localServed, "count"}
		w.layerVals["resilience.breaker_opens"] = metric{after.breakerOpens - before.breakerOpens, "count"}
		w.layerVals["service.drift_solve_ms"] = metric{1e3 * ratio(after.solveSum-before.solveSum, after.solveCount-before.solveCount), "ms"}
		w.layerVals["service.drift_warm_starts"] = metric{float64(warmStarts), "count"}
		w.layerVals["store.puts"] = metric{after.storePuts - before.storePuts, "count"}
		w.layerVals["gossip.rounds"] = metric{after.gossipRounds - before.gossipRounds, "count"}
		w.layerVals["gossip.sync_bytes"] = metric{after.syncBytes - before.syncBytes, "bytes"}
	}
	return nil
}

// probe measures the serving layers one at a time on the healthy cluster:
// an in-process PlanContext on a warm key, a direct POST to a replica, the
// same POST through the router, and canonicalization.
func (w *routedServe) probe(ctx context.Context) error {
	const reps = 200
	w.layerVals = map[string]metric{}
	item := w.pool[0]
	req := service.Request{App: item.app, Model: plan.Overlap, Objective: solve.PeriodObjective, Method: solve.BranchBound}
	r := w.replicas[0]
	if _, err := r.srv.PlanContext(ctx, req); err != nil { // warm the key on this replica
		return err
	}
	var planUS, directMS, routedMS, canonUS []float64
	for i := 0; i < reps; i++ {
		sp := w.tr.start("service.plan_call", 0, "")
		t0 := time.Now()
		if _, err := r.srv.PlanContext(ctx, req); err != nil {
			return err
		}
		planUS = append(planUS, float64(time.Since(t0))/1e3)
		sp.end()

		sp = w.tr.start("service.http_read", 0, "")
		t0 = time.Now()
		code, _, err := call(ctx, w.client, http.MethodPost, r.lb.URL+"/v1/plan", "", item.body)
		directMS = append(directMS, ms(time.Since(t0)))
		sp.end()
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("direct read: status %d, %v", code, err)
		}

		t0 = time.Now()
		if _, err := w.read(ctx, item, fmt.Sprintf("probe-%d", i)); err != nil {
			return err
		}
		routedMS = append(routedMS, ms(time.Since(t0)))

		sp = w.tr.start("canon.canonicalize", 0, "")
		t0 = time.Now()
		if _, err := canon.Canonicalize(w.pool[i%len(w.pool)].app); err != nil {
			return err
		}
		canonUS = append(canonUS, float64(time.Since(t0))/1e3)
		sp.end()
	}
	w.layerVals["service.plan_call_us"] = metric{median(planUS), "us"}
	w.layerVals["service.http_read_ms"] = metric{median(directMS), "ms"}
	w.layerVals["cluster.route_overhead_ms"] = metric{median(routedMS) - median(directMS), "ms"}
	w.layerVals["canon.canonicalize_us"] = metric{median(canonUS), "us"}
	return nil
}

// tailWindow: the read p99 is the median over windows of the healthy
// half, so one stall (a GC cycle, a slow fsync, a gossip burst) moves one
// window rather than the run's figure.
const tailWindow = time.Second

// endToEnd reports the healthy reads' median latency (path a) and their
// rate per CPU-second (see cpuSeconds), and the degraded reads' median
// latency (path b).
// The read p99, the drift PATCH p50 and the wall-clock read rate go to
// the log only: across ten-seed sets on a shared 2-CPU host their spreads
// reached 0.40, 0.40 and 0.33, beyond any bound the benchmark may set.
func (w *routedServe) endToEnd() map[string]metric {
	all := make([]float64, len(w.reads))
	for i, s := range w.reads {
		all[i] = s.ms
	}
	p99 := windows(w.reads, w.healthy, tailWindow, func(v []float64) float64 { return quantile(v, 0.99) })
	fmt.Fprintf(w.cfg.log, "routed-serve: read p99 %.4g ms over %d reads (median of %v windows), drift p50 %.4g ms over %d PATCHes, %.4g reads/s wall clock\n",
		median(p99), len(all), tailWindow, median(w.drifts), len(w.drifts), float64(len(all))/w.healthy.Seconds())
	return map[string]metric{
		"path_a_ms":     {median(all), "ms"},
		"ops_per_cpu_s": {w.headline(), "ops/cpu-s"},
		"path_b_ms":     {median(w.degradedReads), "ms"},
	}
}

func (w *routedServe) headline() float64 { return float64(len(w.reads)) / w.healthyCPU }

func (w *routedServe) counts() (int64, int64) { return w.attempted, w.failed }

func (w *routedServe) layers(ctx context.Context) (map[string]metric, error) {
	if len(w.layerVals) == 0 {
		return nil, fmt.Errorf("no traced phase")
	}
	return w.layerVals, nil
}

// check compares every pool item's reference answer (which every read
// already matched) with a direct in-process solve of the canonical
// instance, and every drift answer with a cold solve of the drifted
// instance.
func (w *routedServe) check(ctx context.Context) []string {
	fails := append([]string(nil), w.errs...)
	type job struct {
		name string
		app  *workflow.App
		doc  *planDoc
		hash string
	}
	var jobs []job
	for i, item := range w.pool {
		if item.ref == nil {
			fails = append(fails, fmt.Sprintf("pool item %d was never read", i))
			continue
		}
		jobs = append(jobs, job{fmt.Sprintf("pool item %d", i), item.inst.App(), item.refDoc, item.inst.Hash()})
	}
	for i := range w.driftAns {
		a := &w.driftAns[i]
		base := w.pool[a.base].inst.App()
		svcs := base.Services()
		svcs[base.IndexOf(a.service)].Cost = a.cost
		app, err := workflow.New(svcs, nil)
		if err != nil {
			fails = append(fails, fmt.Sprintf("drift %d: %v", i, err))
			continue
		}
		jobs = append(jobs, job{fmt.Sprintf("drift %d (%s cost %s)", i, a.service, a.cost), app, &a.doc.Plan, a.doc.NewHash})
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan job)
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				err := directCheck(ctx, j.app, j.doc, j.hash)
				if err != nil {
					mu.Lock()
					fails = append(fails, fmt.Sprintf("%s: %v", j.name, err))
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		if ctx.Err() != nil {
			break
		}
		next <- j
	}
	close(next)
	wg.Wait()
	return fails
}

// directCheck solves app's canonical instance in process, exactly as the
// requests ask (OVERLAP period, branch and bound), and requires the
// served plan to be bit-identical.
func directCheck(ctx context.Context, app *workflow.App, doc *planDoc, hash string) error {
	inst, err := canon.Canonicalize(app)
	if err != nil {
		return err
	}
	if inst.Hash() != hash {
		return fmt.Errorf("served hash %s, instance hashes to %s", hash, inst.Hash())
	}
	sol, err := solve.MinPeriod(inst.App(), plan.Overlap, solve.Options{Method: solve.BranchBound, Workers: 1, Ctx: ctx})
	if err != nil {
		return err
	}
	want, err := newDirectAnswer(inst, sol)
	if err != nil {
		return err
	}
	return want.matches(doc)
}
