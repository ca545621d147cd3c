package testgen_test

import (
	"context"
	"testing"

	"wcet/internal/core"
	"wcet/internal/gen"
	"wcet/internal/mc"
	"wcet/internal/obs"
	"wcet/internal/testgen"
)

// TestForwardMatchesReachabilityOnGenResidue checks every residue path of
// a generated program — each path the model checker decided in a full
// analysis — with both engines on the model the pipeline checks. The
// forward engine must decide every one without falling back, agree with
// reachability on feasibility, and produce a witness that replays onto
// the path; so must reachability's witness.
func TestForwardMatchesReachabilityOnGenResidue(t *testing.T) {
	src := gen.Generate(gen.Config{Seed: 1, Branches: 30}).Source
	file, fn, g, err := core.Frontend(src, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.AnalyzeGraph(file, fn, g, core.Options{Bound: 8})
	if err != nil {
		t.Fatal(err)
	}
	tg := testgen.New(file, fn, g)
	conf := testgen.Config{}
	residue := 0
	for _, r := range rep.TestGen.Results {
		if r.Verdict != testgen.FoundByModelChecker && r.Verdict != testgen.Infeasible {
			continue
		}
		residue++
		key := r.Path.Key()
		low, err := tg.LowerPath(r.Path, conf)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		ref, err := mc.CheckSymbolic(low.Model, mc.Options{})
		if err != nil {
			t.Fatalf("%s: reachability: %v", key, err)
		}
		o := obs.New(obs.Config{})
		fwd, err := mc.CheckCtx(obs.With(context.Background(), o), low.Model, mc.Options{})
		if err != nil {
			t.Fatalf("%s: forward: %v", key, err)
		}
		if o.Metrics().Value("mc.forward.decided") != 1 {
			t.Errorf("%s: not decided by the forward engine (fallbacks %d)",
				key, o.Metrics().Value("mc.forward.fallbacks"))
		}
		want := r.Verdict == testgen.FoundByModelChecker
		if fwd.Reachable != ref.Reachable || fwd.Reachable != want {
			t.Fatalf("%s: forward %v, reachability %v, analysis verdict %s",
				key, fwd.Reachable, ref.Reachable, r.Verdict)
		}
		if !want {
			continue
		}
		for engine, w := range map[string]*mc.Result{"forward": fwd, "reachability": ref} {
			if _, err := tg.WitnessEnv(low, r.Path, w.Witness, conf); err != nil {
				t.Errorf("%s: %s witness: %v", key, engine, err)
			}
		}
	}
	if residue == 0 {
		t.Fatal("no residue paths: the analysis decided nothing by model checking")
	}
	t.Logf("%d residue paths checked by both engines", residue)
}
