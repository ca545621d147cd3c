package testgen

import (
	"context"
	"errors"
	"testing"

	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/ga"
)

func TestVerdictStrings(t *testing.T) {
	cases := []struct {
		v    Verdict
		want string
	}{
		{FoundByHeuristic, "heuristic"},
		{FoundByModelChecker, "model-checker"},
		{Infeasible, "infeasible"},
		{Unknown, "unknown"},
		{Verdict(42), "verdict(42)"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(c.v), got, c.want)
		}
	}
}

// needleSrc has one path the GA essentially cannot hit (a 1-in-65536
// equality), guaranteeing a model-checker residue to inject faults into.
const needleSrc = `
/*@ input */ int a;
int r;
int f(void) {
    r = 0;
    if (a == 12345) { r = 1; }
    return r;
}`

func smallGA() ga.Config {
	return ga.Config{Seed: 7, Pop: 8, MaxGens: 4, Stagnation: 2}
}

func TestInjectedMCFaultDegradesToUnknown(t *testing.T) {
	gen := setup(t, needleSrc, "f")
	targets := endToEndPaths(t, gen)
	ctx := faults.With(context.Background(), faults.New(
		faults.Rule{Site: "testgen.mc", Index: -1, Err: fail.Budget("mc", "injected step budget")}))
	rep, err := gen.GenerateCtx(ctx, targets, Config{GA: smallGA()})
	if err != nil {
		t.Fatalf("a per-path fault must degrade, not abort: %v", err)
	}
	unknowns := 0
	for _, r := range rep.Results {
		if r.Verdict != Unknown {
			continue
		}
		unknowns++
		if !errors.Is(r.Err, fail.ErrBudgetExceeded) {
			t.Errorf("path %s: cause = %v, want the injected budget error", r.Path.Key(), r.Err)
		}
		var fe *fail.Error
		if !errors.As(r.Err, &fe) || fe.Path != r.Path.Key() {
			t.Errorf("path %s: cause not attributed to its path: %v", r.Path.Key(), r.Err)
		}
	}
	if unknowns == 0 {
		t.Fatal("no residue target degraded — the fault never fired")
	}
}

func TestUnknownCausesIdenticalAcrossWorkers(t *testing.T) {
	gen := setup(t, needleSrc, "f")
	targets := endToEndPaths(t, gen)
	run := func(workers int) []string {
		ctx := faults.With(context.Background(), faults.New(
			faults.Rule{Site: "testgen.mc", Index: -1, Err: fail.Budget("mc", "injected")}))
		conf := Config{GA: smallGA(), Workers: workers}
		rep, err := gen.GenerateCtx(ctx, targets, conf)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rep.Results {
			if r.Verdict == Unknown {
				out = append(out, r.Err.Error())
			}
		}
		return out
	}
	serial, parallel := run(1), run(8)
	if len(serial) == 0 {
		t.Fatal("no degradations recorded")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("degradation counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("degradation %d differs:\n  workers=1: %s\n  workers=8: %s", i, serial[i], parallel[i])
		}
	}
}

func TestGenerateCancelledAborts(t *testing.T) {
	gen := setup(t, needleSrc, "f")
	targets := endToEndPaths(t, gen)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := gen.GenerateCtx(ctx, targets, Config{GA: smallGA()})
	if !errors.Is(err, fail.ErrCancelled) {
		t.Fatalf("got (%v, %v), want ErrCancelled", rep, err)
	}
}

func TestInjectedPanicIsolatedAndDeterministic(t *testing.T) {
	gen := setup(t, needleSrc, "f")
	targets := endToEndPaths(t, gen)
	run := func(workers int) string {
		ctx := faults.With(context.Background(), faults.New(
			faults.Rule{Site: "testgen.search", Index: 0, Mode: faults.Panic}))
		_, err := gen.GenerateCtx(ctx, targets, Config{GA: smallGA(), Workers: workers})
		if !errors.Is(err, fail.ErrWorkerPanic) {
			t.Fatalf("workers=%d: got %v, want ErrWorkerPanic", workers, err)
		}
		return err.Error()
	}
	if s, p := run(1), run(8); s != p {
		t.Errorf("panic error differs across workers:\n  1: %s\n  8: %s", s, p)
	}
}

func TestGAEvaluationBudgetBoundsEffort(t *testing.T) {
	gen := setup(t, needleSrc, "f")
	targets := endToEndPaths(t, gen)
	conf := Config{
		GA:     ga.Config{Seed: 7, Pop: 16, MaxGens: 1000, Stagnation: 1000, MaxEvaluations: 40},
		SkipMC: true,
	}
	rep, err := gen.Generate(targets, conf)
	if err != nil {
		t.Fatal(err)
	}
	// Each target's search is capped independently, so total effort is at
	// most targets × cap.
	if max := len(targets) * 40; rep.TotalGAEvals > max {
		t.Errorf("GA evaluations = %d, want ≤ %d under MaxEvaluations", rep.TotalGAEvals, max)
	}
}
