package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/canon"
	"repro/internal/oplist"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/solve"
)

// planDoc is the POST /v1/plan answer (and the plan of a PATCH answer).
type planDoc struct {
	Hash    string  `json:"hash"`
	Outcome string  `json:"outcome"`
	Value   rat.Rat `json:"value"`
	Period  rat.Rat `json:"period"`
	Latency rat.Rat `json:"latency"`
	Graph   struct {
		Services []string    `json:"services"`
		Edges    [][2]string `json:"edges"`
	} `json:"graph"`
	Schedule json.RawMessage `json:"schedule"`
}

// driftDoc is the PATCH /v1/instance/{hash} answer.
type driftDoc struct {
	NewHash   string  `json:"new_hash"`
	WarmStart bool    `json:"warm_start"`
	Plan      planDoc `json:"plan"`
}

// explainDoc is the GET /v1/explain/{hash} answer.
type explainDoc struct {
	Method string `json:"method"`
	Family string `json:"family"`
	Solver *struct {
		Expanded  int64 `json:"expanded"`
		Pruned    int64 `json:"pruned"`
		Evaluated int64 `json:"evaluated"`
	} `json:"solver"`
	Orch *struct {
		Orchestrations  int64 `json:"orchestrations"`
		MemoHits        int64 `json:"memo_hits"`
		Prefixes        int64 `json:"prefixes"`
		Evaluated       int64 `json:"evaluated"`
		FilterCertified int64 `json:"filter_certified"`
		FilterFallback  int64 `json:"filter_fallback"`
	} `json:"orchestration"`
	Timings *struct {
		Queue float64 `json:"queue_seconds"`
		Solve float64 `json:"solve_seconds"`
		Orch  float64 `json:"orchestrate_seconds"`
	} `json:"timings"`
}

// planGraph rebuilds the execution graph a plan answer names over the
// canonical instance.
func planGraph(inst *canon.Instance, doc *planDoc) (*plan.ExecGraph, error) {
	app := inst.App()
	if doc.Hash != inst.Hash() {
		return nil, fmt.Errorf("hash %s, canonical instance hashes to %s", doc.Hash, inst.Hash())
	}
	if len(doc.Graph.Services) != app.N() {
		return nil, fmt.Errorf("graph lists %d services, instance has %d", len(doc.Graph.Services), app.N())
	}
	for i, name := range doc.Graph.Services {
		if app.Name(i) != name {
			return nil, fmt.Errorf("graph service %d is %q, canonical order has %q", i, name, app.Name(i))
		}
	}
	edges := make([][2]int, len(doc.Graph.Edges))
	for i, e := range doc.Graph.Edges {
		edges[i] = [2]int{app.IndexOf(e[0]), app.IndexOf(e[1])}
	}
	return plan.Build(app, edges)
}

// checkSchedule verifies one plan answer on its own: the schedule passes
// the model's validator (the paper's Appendix-A rules, oplist.Validate)
// and the reported value, period and latency are what the schedule
// itself yields.
func checkSchedule(inst *canon.Instance, m plan.Model, obj solve.Objective, doc *planDoc) error {
	eg, err := planGraph(inst, doc)
	if err != nil {
		return err
	}
	l, err := oplist.LoadList(eg.Weighted(), doc.Schedule)
	if err != nil {
		return fmt.Errorf("schedule does not load: %w", err)
	}
	if err := l.Validate(m); err != nil {
		return fmt.Errorf("schedule fails the %v validator: %w", m, err)
	}
	want := l.Period()
	if obj == solve.LatencyObjective {
		want = l.Latency()
	}
	if !doc.Value.Equal(want) {
		return fmt.Errorf("reported value %s, schedule yields %s", doc.Value, want)
	}
	if !doc.Period.Equal(l.Period()) || !doc.Latency.Equal(l.Latency()) {
		return fmt.Errorf("reported period/latency %s/%s, schedule yields %s/%s",
			doc.Period, doc.Latency, l.Period(), l.Latency())
	}
	return nil
}

// directAnswer is what a direct in-process solve returns for a request,
// in the wire form a served answer must match bit for bit.
type directAnswer struct {
	hash     string
	value    rat.Rat
	edges    [][2]string
	schedule []byte // compacted JSON
}

func newDirectAnswer(inst *canon.Instance, sol solve.Solution) (directAnswer, error) {
	sched, err := json.Marshal(sol.Sched.List)
	if err != nil {
		return directAnswer{}, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, sched); err != nil {
		return directAnswer{}, err
	}
	app := inst.App()
	var edges [][2]string
	for _, e := range sol.Graph.Graph().Edges() {
		edges = append(edges, [2]string{app.Name(e[0]), app.Name(e[1])})
	}
	return directAnswer{hash: inst.Hash(), value: sol.Value, edges: edges, schedule: buf.Bytes()}, nil
}

// matches reports how a served plan differs from the direct answer (nil:
// bit-identical hash, value, graph and schedule).
func (d directAnswer) matches(doc *planDoc) error {
	if doc.Hash != d.hash {
		return fmt.Errorf("hash %s, direct solve %s", doc.Hash, d.hash)
	}
	if !doc.Value.Equal(d.value) {
		return fmt.Errorf("value %s, direct solve %s", doc.Value, d.value)
	}
	if len(doc.Graph.Edges) != len(d.edges) {
		return fmt.Errorf("graph has %d edges, direct solve %d", len(doc.Graph.Edges), len(d.edges))
	}
	for i := range d.edges {
		if doc.Graph.Edges[i] != d.edges[i] {
			return fmt.Errorf("graph edge %d is %v, direct solve %v", i, doc.Graph.Edges[i], d.edges[i])
		}
	}
	var got bytes.Buffer
	if err := json.Compact(&got, doc.Schedule); err != nil {
		return fmt.Errorf("schedule is not JSON: %w", err)
	}
	if !bytes.Equal(got.Bytes(), d.schedule) {
		return fmt.Errorf("schedule bytes differ from the direct solve")
	}
	return nil
}
