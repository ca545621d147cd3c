package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/ga"
	"wcet/internal/testgen"
)

// mcOnly sends every target to the model checker, so an injected
// model-checker fault deterministically degrades every feasible path.
func mcOnly() testgen.Config {
	return testgen.Config{SkipGA: true}
}

func mcBudgetFault() context.Context {
	return faults.With(context.Background(), faults.New(
		faults.Rule{Site: "testgen.mc", Index: -1, Err: fail.Budget("mc", "injected step budget")}))
}

func TestSoundnessExactOnCleanRun(t *testing.T) {
	rep := run(t, Options{FuncName: "step", Bound: 1})
	if rep.Soundness != BoundExact {
		t.Errorf("clean run soundness = %v, want exact", rep.Soundness)
	}
	if len(rep.Degradations) != 0 || len(rep.DegradedUnits) != 0 {
		t.Errorf("clean run carries a degradation ledger: %+v", rep.Degradations)
	}
	if !strings.Contains(rep.Summary(), "exact") {
		t.Errorf("Summary() = %q, want the exact verdict", rep.Summary())
	}
}

func TestDegradedSafeViaExhaustiveFallback(t *testing.T) {
	rep, err := AnalyzeCtx(mcBudgetFault(), coreSrc, Options{
		FuncName: "step", Bound: 1, Exhaustive: true, TestGen: mcOnly(),
	})
	if err != nil {
		t.Fatalf("budget faults must degrade, not abort: %v", err)
	}
	if rep.Soundness != BoundDegradedSafe {
		t.Fatalf("soundness = %v, want safe-but-degraded (input space is 3×21)", rep.Soundness)
	}
	if len(rep.Degradations) == 0 || len(rep.DegradedUnits) == 0 {
		t.Fatal("degraded run must carry a non-empty ledger")
	}
	for _, d := range rep.Degradations {
		if d.Resolution != "exhaustive-fallback" {
			t.Errorf("path %s: resolution = %q, want exhaustive-fallback", d.PathKey, d.Resolution)
		}
		if !errors.Is(d.Cause, fail.ErrBudgetExceeded) {
			t.Errorf("path %s: cause = %v, want the injected budget error", d.PathKey, d.Cause)
		}
		if len(d.Units) == 0 {
			t.Errorf("path %s: no owning units attributed", d.PathKey)
		}
	}
	// The fallback measured every input vector, so the bound must still
	// dominate the exhaustive ground truth.
	if rep.ExhaustiveWCET <= 0 || rep.WCET < rep.ExhaustiveWCET {
		t.Errorf("degraded bound %d vs exhaustive %d: safety lost", rep.WCET, rep.ExhaustiveWCET)
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "safe-but-degraded") || !strings.Contains(sum, "degradation ledger") {
		t.Errorf("Summary() = %q, want the degraded verdict and ledger", sum)
	}
}

func TestUnavailableWhenFallbackImpossible(t *testing.T) {
	rep, err := AnalyzeCtx(mcBudgetFault(), coreSrc, Options{
		FuncName: "step", Bound: 1, MaxExhaustive: 2, TestGen: mcOnly(),
	})
	if err != nil {
		t.Fatalf("unavailable bound is a report, not an error: %v", err)
	}
	if rep.Soundness != BoundUnavailable {
		t.Fatalf("soundness = %v, want unavailable under MaxExhaustive=2", rep.Soundness)
	}
	if rep.WCET != -1 {
		t.Errorf("WCET = %d, want -1 (stating a number here would be a guess)", rep.WCET)
	}
	for _, d := range rep.Degradations {
		if d.Resolution != "unresolved" {
			t.Errorf("path %s: resolution = %q, want unresolved", d.PathKey, d.Resolution)
		}
	}
	if !strings.Contains(rep.Summary(), "unavailable") {
		t.Errorf("Summary() = %q, want the unavailable verdict", rep.Summary())
	}
}

func TestDegradedLedgerStableAcrossWorkers(t *testing.T) {
	analyse := func(workers int) *Report {
		rep, err := AnalyzeCtx(mcBudgetFault(), coreSrc, Options{
			FuncName: "step", Bound: 1, Exhaustive: true, Workers: workers, TestGen: mcOnly(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial, parallel := analyse(1), analyse(8)
	if serial.WCET != parallel.WCET || serial.Soundness != parallel.Soundness {
		t.Errorf("verdict differs: (%d, %v) vs (%d, %v)",
			serial.WCET, serial.Soundness, parallel.WCET, parallel.Soundness)
	}
	if s, p := serial.Summary(), parallel.Summary(); s != p {
		t.Errorf("degraded summaries differ:\n  workers=1:\n%s\n  workers=8:\n%s", s, p)
	}
}

func TestAnalyzeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := AnalyzeCtx(ctx, coreSrc, Options{
		FuncName: "step", Bound: 1,
		TestGen: testgen.Config{GA: ga.Config{Seed: 5, Pop: 32, MaxGens: 40}},
	})
	if !errors.Is(err, fail.ErrCancelled) {
		t.Fatalf("got (%v, %v), want ErrCancelled", rep, err)
	}
}

// contradictionSrc nests mutually exclusive guards: the inner then-branch
// is infeasible, so only the model checker could discharge its target.
const contradictionSrc = `
/*@ input */ /*@ range 0 20 */ int a;
int r;
void g(void) {
    r = 0;
    if (a > 15) {
        if (a < 5) { r = 1; }
    }
}`

func TestSkipMCDegradesInsteadOfAborting(t *testing.T) {
	// With the model checker disabled the infeasible residue has no proof;
	// those paths must surface in the ledger, not abort the analysis.
	rep, err := Analyze(contradictionSrc, Options{
		FuncName: "g", Bound: 1, Exhaustive: true,
		TestGen: testgen.Config{
			GA:     ga.Config{Seed: 5, Pop: 32, MaxGens: 40, Stagnation: 10},
			SkipMC: true,
		},
	})
	if err != nil {
		t.Fatalf("SkipMC must degrade, not abort: %v", err)
	}
	if rep.Soundness == BoundExact {
		// The switch targets include infeasible outcomes only the model
		// checker can discharge, so some degradation must remain.
		t.Error("heuristic-only run reported an exact bound")
	}
	if !strings.Contains(rep.Summary(), "model checker disabled") {
		t.Errorf("Summary() = %q, want the disabled-MC cause", rep.Summary())
	}
}
