package main

import (
	"fmt"
	"math/rand"

	"wcet"
	"wcet/internal/cfg"
	"wcet/internal/codegen"
	"wcet/internal/core"
	"wcet/internal/interp"
	"wcet/internal/paths"
	"wcet/internal/sim"
	"wcet/internal/testgen"
)

// maxExhaustive is the largest input space the oracle enumerates in full;
// it matches the analysis's own default MaxExhaustive.
const maxExhaustive = 1 << 16

// Oracle holds the facts a report is checked against, computed without
// running the analysis: every check vector is run end to end on the
// simulator (for the observed worst case) and through the interpreter (for
// the executed paths).
type Oracle struct {
	// Exhaustive says the vectors are the whole input space.
	Exhaustive bool
	// MaxCycles is the largest simulator cycle count over the vectors.
	MaxCycles int64
	// GapCycles is the largest over the first seed's vectors (all of them
	// when exhaustive): the observed maximum bound_gap_pct is taken
	// against, the same on every run when that seed is fixed.
	GapCycles int64

	g       *cfg.Graph
	traces  []*interp.Trace // one per distinct executed path
	covered map[string]bool // path key -> some trace covers the path
}

// NewOracle builds the oracle for function funcName of src. The check
// vectors are the whole input space when it has at most maxExhaustive
// points, otherwise sample vectors per seed, drawn uniformly from the
// input ranges.
func NewOracle(src, funcName string, sample int, seeds ...int64) (*Oracle, error) {
	file, fn, g, err := core.Frontend(src, funcName)
	if err != nil {
		return nil, err
	}
	img, err := codegen.Compile(g, file)
	if err != nil {
		return nil, err
	}
	vm := sim.New(img, sim.Options{})
	m := interp.New(file, interp.Options{})
	o := &Oracle{g: g, covered: map[string]bool{}}

	inputs := testgen.New(file, fn, g).Inputs
	space := 1
	for _, v := range inputs {
		space *= int(v.Hi - v.Lo + 1)
		if space > maxExhaustive {
			break
		}
	}
	o.Exhaustive = space <= maxExhaustive
	if o.Exhaustive {
		seeds, sample = seeds[:1], space
	}
	// Vectors are generated one at a time into env, so the oracle's memory
	// does not grow with their number.
	env := interp.Env{}
	seen := map[string]bool{}
	for si, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < sample; i++ {
			rest := i
			for _, v := range inputs {
				width := v.Hi - v.Lo + 1
				if o.Exhaustive {
					env[v.Decl] = v.Lo + int64(rest)%width
					rest /= int(width)
				} else {
					env[v.Decl] = v.Lo + rng.Int63n(width)
				}
			}
			st, err := vm.Run(env)
			if err != nil {
				return nil, fmt.Errorf("oracle: simulating a check vector: %w", err)
			}
			o.MaxCycles = max(o.MaxCycles, st.Total)
			if si == 0 {
				o.GapCycles = o.MaxCycles
			}
			tr, err := m.Run(g, env.Clone())
			if err != nil {
				return nil, fmt.Errorf("oracle: interpreting a check vector: %w", err)
			}
			if k := tr.PathKey(); !seen[k] {
				seen[k] = true
				o.traces = append(o.traces, tr)
			}
		}
	}
	return o, nil
}

// covers reports whether some check vector executes p.
func (o *Oracle) covers(p paths.Path) bool {
	k := p.Key()
	c, ok := o.covered[k]
	if !ok {
		for _, tr := range o.traces {
			if c = paths.Covers(o.g, tr, p); c {
				break
			}
		}
		o.covered[k] = c
	}
	return c
}

// Check returns one line per property rep violates; nil means rep passed.
// The properties: the bound is exact and at least the observed maximum, no
// check vector executes a path the analysis proved infeasible, and every
// found path's input vector, replayed through the interpreter, executes
// that path.
func (o *Oracle) Check(rep *wcet.Report) []string {
	var bad []string
	if rep.Soundness != wcet.BoundExact {
		bad = append(bad, fmt.Sprintf("soundness %s, want exact: %s", rep.Soundness, rep.Summary()))
	}
	if rep.WCET < o.MaxCycles {
		bad = append(bad, fmt.Sprintf("bound %d cycles below the observed maximum %d", rep.WCET, o.MaxCycles))
	}
	m := interp.New(rep.File, interp.Options{})
	for _, r := range rep.TestGen.Results {
		switch r.Verdict {
		case wcet.Infeasible:
			if o.covers(r.Path) {
				bad = append(bad, fmt.Sprintf("path %s proved infeasible but a check vector executes it", r.Path.Key()))
			}
		case wcet.FoundByHeuristic, wcet.FoundByModelChecker:
			tr, err := m.Run(rep.G, r.Env.Clone())
			if err != nil || !paths.Covers(rep.G, tr, r.Path) {
				bad = append(bad, fmt.Sprintf("path %s: its %s vector does not execute it", r.Path.Key(), r.Verdict))
			}
		}
	}
	return bad
}

// SelfTest feeds the checker two corrupted copies of a passing report — the
// bound one cycle below the observed maximum, and one feasible path that a
// check vector executes relabelled infeasible — and returns an error unless
// it flags both. rep itself is not modified.
func (o *Oracle) SelfTest(rep *wcet.Report) error {
	if len(o.Check(lowered(rep, o.MaxCycles-1))) == 0 {
		return fmt.Errorf("checker accepted a bound one cycle below the observed maximum")
	}
	i := o.coveredFound(rep)
	if i < 0 {
		return fmt.Errorf("no found path is executed by a check vector; the relabel test cannot run")
	}
	if len(o.Check(relabelled(rep, i))) == 0 {
		return fmt.Errorf("checker accepted feasible path %s relabelled infeasible", rep.TestGen.Results[i].Path.Key())
	}
	return nil
}

// coveredFound returns the index of the first found path in rep that some
// check vector executes, or -1.
func (o *Oracle) coveredFound(rep *wcet.Report) int {
	for i, r := range rep.TestGen.Results {
		if (r.Verdict == wcet.FoundByHeuristic || r.Verdict == wcet.FoundByModelChecker) && o.covers(r.Path) {
			return i
		}
	}
	return -1
}

// lowered returns a copy of rep with its bound set to wcetCycles.
func lowered(rep *wcet.Report, wcetCycles int64) *wcet.Report {
	c := *rep
	c.WCET = wcetCycles
	return &c
}

// relabelled returns a copy of rep whose i-th path result is marked
// infeasible.
func relabelled(rep *wcet.Report, i int) *wcet.Report {
	tg := *rep.TestGen
	tg.Results = append([]testgen.PathResult(nil), tg.Results...)
	tg.Results[i].Verdict = wcet.Infeasible
	c := *rep
	c.TestGen = &tg
	return &c
}
