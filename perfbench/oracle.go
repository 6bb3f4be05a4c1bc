package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/canon"
	"repro/internal/plan"
	"repro/internal/rat"
	"repro/internal/solve"
	"repro/internal/workflow"
)

// The small-instance oracle: the benchmark enumerates every execution
// graph of the structural family a solve reports having searched and
// scores each with the public solve.Reevaluate. The served value must be
// the minimum. Minima of the default seeds' instances are kept in
// perfbench/minima.json (remade by `perfbench minima`); any other instance
// is enumerated when it is checked.

// minimaFile is the stored oracle, relative to the checkout.
const minimaFile = "perfbench/minima.json"

// minimaSeeds and minimaRounds are the default seeds and how many
// cold-plan rounds of each the stored minima cover.
var minimaSeeds = []int64{1, 2, 3}

const minimaRounds = 24

func minimaKey(hash string, m plan.Model, obj solve.Objective, family string) string {
	return strings.Join([]string{hash, strings.ToLower(m.String()), obj.String(), family}, "|")
}

// familyOf names the family a resolved method searched, from the method
// and family /v1/explain reports; "" for the heuristics.
func familyOf(method, family string) string {
	switch method {
	case "exact-forest":
		return "forest"
	case "exact-dag":
		return "dag"
	case "branch-bound":
		return family
	}
	return ""
}

// familyMinimum enumerates the family's execution graphs over app and
// returns the least objective value solve.Reevaluate gives any of them.
func familyMinimum(ctx context.Context, app *workflow.App, m plan.Model, obj solve.Objective, family string) (rat.Rat, error) {
	n := app.N()
	best, found := rat.Zero, false
	var evalErr error
	score := func(edges [][2]int) bool {
		if ctx.Err() != nil {
			return false
		}
		eg, err := plan.Build(app, edges)
		if err != nil {
			return true // cyclic, or violates a precedence constraint
		}
		sol, err := solve.Reevaluate(eg, m, obj, solve.Options{Workers: 1})
		if err != nil {
			evalErr = err
			return false
		}
		if !found || sol.Value.Less(best) {
			best, found = sol.Value, true
		}
		return true
	}
	switch family {
	case "forest":
		// Every parent function; plan.Build rejects the cyclic ones.
		parent := make([]int, n)
		var rec func(v int) bool
		rec = func(v int) bool {
			if v == n {
				var edges [][2]int
				for c, p := range parent {
					if p >= 0 {
						edges = append(edges, [2]int{p, c})
					}
				}
				return score(edges)
			}
			for p := -1; p < n; p++ {
				if p == v {
					continue
				}
				parent[v] = p
				if !rec(v + 1) {
					return false
				}
			}
			return true
		}
		rec(0)
	case "dag":
		// Every orientation (absent, forward, backward) of every pair.
		var pairs [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		var edges [][2]int
		var rec func(k int) bool
		rec = func(k int) bool {
			if k == len(pairs) {
				return score(edges)
			}
			p := pairs[k]
			for _, e := range [][][2]int{nil, {{p[0], p[1]}}, {{p[1], p[0]}}} {
				edges = append(edges, e...)
				ok := rec(k + 1)
				edges = edges[:len(edges)-len(e)]
				if !ok {
					return false
				}
			}
			return true
		}
		rec(0)
	default:
		return rat.Zero, fmt.Errorf("no oracle for family %q", family)
	}
	if err := ctx.Err(); err != nil {
		return rat.Zero, err
	}
	if evalErr != nil {
		return rat.Zero, evalErr
	}
	if !found {
		return rat.Zero, fmt.Errorf("family %s has no feasible graph", family)
	}
	return best, nil
}

// loadMinima reads the stored oracle (absent file: empty).
func loadMinima(root string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, minimaFile))
	if os.IsNotExist(err) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", minimaFile, err)
	}
	return out, nil
}

// runMinima remakes perfbench/minima.json: the family minimum of every
// small instance the default seeds' first cold-plan rounds generate, and
// of the testdata instances, under the family Auto resolves to.
func runMinima(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench minima", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	testdata, err := loadTestdata(*root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench minima:", err)
		return 1
	}
	var specs []coldSpec
	for _, seed := range minimaSeeds {
		for r := 0; r < minimaRounds; r++ {
			for _, s := range coldRound(seed, r, testdata) {
				if s.small {
					specs = append(specs, s)
				}
			}
		}
	}
	type job struct {
		key   string
		fam   string
		app   *workflow.App
		spec  coldSpec
		value string
		err   error
	}
	seen := map[string]bool{}
	var jobs []*job
	for _, s := range specs {
		inst, err := canon.Canonicalize(s.app)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench minima:", err)
			return 1
		}
		opts := solve.Options{Workers: 1}
		method := solve.ResolveMethod(inst.App(), s.obj, opts)
		fam := familyOf(method.String(), solve.ResolveFamily(inst.App(), s.obj, solve.FamilyAuto).String())
		if fam == "" {
			continue
		}
		key := minimaKey(inst.Hash(), s.model, s.obj, fam)
		if !seen[key] {
			seen[key] = true
			jobs = append(jobs, &job{key: key, fam: fam, app: inst.App(), spec: s})
		}
	}
	fmt.Fprintf(stderr, "perfbench minima: enumerating %d instances\n", len(jobs))
	var wg sync.WaitGroup
	next := make(chan *job)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				v, err := familyMinimum(context.Background(), j.app, j.spec.model, j.spec.obj, j.fam)
				j.value, j.err = v.String(), err
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	out := map[string]string{}
	for _, j := range jobs {
		if j.err != nil {
			fmt.Fprintln(stderr, "perfbench minima:", j.key, j.err)
			return 1
		}
		out[j.key] = j.value
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench minima:", err)
		return 1
	}
	path := filepath.Join(*root, minimaFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench minima:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d minima to %s\n", len(out), path)
	return 0
}
