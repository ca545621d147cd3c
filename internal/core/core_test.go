package core

import (
	"testing"

	"wcet/internal/ga"
	"wcet/internal/partition"
	"wcet/internal/testgen"
)

const coreSrc = `
/*@ input */ /*@ range 0 2 */ int sel;
/*@ input */ /*@ range 0 20 */ char x;
int r;
void step(void) {
    r = 0;
    switch (sel) {
    case 0:
        if (x > 10) { r = 1; } else { r = 2; }
        break;
    case 1:
        r = x * 2;
        r = r + 1;
        break;
    default:
        r = 9;
        break;
    }
}
`

func run(t *testing.T, opt Options) *Report {
	t.Helper()
	opt.TestGen = testgen.Config{
		GA: ga.Config{Seed: 5, Pop: 32, MaxGens: 40, Stagnation: 10},
	}
	rep, err := Analyze(coreSrc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBoundSafetyAcrossPartitions(t *testing.T) {
	exhaust := run(t, Options{FuncName: "step", Bound: 1, Exhaustive: true})
	truth := exhaust.ExhaustiveWCET
	if truth <= 0 {
		t.Fatal("no ground truth")
	}
	for _, b := range []int64{1, 2, 4, 8, 1000} {
		rep := run(t, Options{FuncName: "step", Bound: b, Exhaustive: true})
		if rep.ExhaustiveWCET != truth {
			t.Errorf("ground truth changed with bound: %d vs %d", rep.ExhaustiveWCET, truth)
		}
		if rep.WCET < truth {
			t.Errorf("b=%d: bound %d below truth %d", b, rep.WCET, truth)
		}
	}
}

func TestEndToEndBoundTight(t *testing.T) {
	rep := run(t, Options{FuncName: "step", Bound: 1_000_000, Exhaustive: true})
	if rep.WCET != rep.ExhaustiveWCET {
		t.Errorf("whole-function measurement bound %d != exhaustive %d",
			rep.WCET, rep.ExhaustiveWCET)
	}
	if len(rep.Plan.Units) != 1 || rep.Plan.Units[0].Kind != partition.WholePS {
		t.Error("expected a single whole-function unit")
	}
}

func TestPlanTargetsCoverEveryOutcome(t *testing.T) {
	rep := run(t, Options{FuncName: "step", Bound: 1})
	// At block granularity every decision block yields one target per
	// outcome; count targets vs plan units.
	nTargets := len(rep.TestGen.Results)
	if nTargets < len(rep.Plan.Units) {
		t.Errorf("targets (%d) fewer than units (%d)", nTargets, len(rep.Plan.Units))
	}
	// Every unit must be measured (this program has no unreachable units).
	for i, ut := range rep.Measurement.Times {
		if ut.Samples == 0 {
			t.Errorf("unit %d unobserved", i)
		}
	}
}

const loopCoreSrc = `
/*@ input */ /*@ range 0 4 */ int n;
/*@ input */ /*@ range 0 1 */ int mode;
int s;
void accumulate(void) {
    int i;
    s = 0;
    /*@ loopbound 4 */ for (i = 0; i < n; i++) {
        if (mode == 1) { s = s + i * 2; } else { s = s + i; }
    }
    if (s > 6) { s = 6; }
}
`

// TestLoopedProgramEndToEnd drives a bounded-loop program through the full
// pipeline at block granularity: the schema collapses the loop with its
// annotation and the bound must stay safe against exhaustive measurement.
func TestLoopedProgramEndToEnd(t *testing.T) {
	rep, err := Analyze(loopCoreSrc, Options{
		FuncName:   "accumulate",
		Bound:      1,
		Exhaustive: true,
		TestGen: testgen.Config{
			GA: ga.Config{Seed: 8, Pop: 32, MaxGens: 40, Stagnation: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExhaustiveWCET <= 0 {
		t.Fatal("no ground truth")
	}
	if rep.WCET < rep.ExhaustiveWCET {
		t.Errorf("loop bound %d below exhaustive %d: unsafe", rep.WCET, rep.ExhaustiveWCET)
	}
	if rep.WCET > rep.ExhaustiveWCET*3 {
		t.Errorf("loop bound %d absurdly loose vs %d", rep.WCET, rep.ExhaustiveWCET)
	}
}

func TestCriticalPathReported(t *testing.T) {
	rep := run(t, Options{FuncName: "step", Bound: 2})
	if len(rep.Critical) == 0 {
		t.Fatal("no critical path")
	}
	sum := int64(0)
	for _, u := range rep.Critical {
		sum += rep.Measurement.UnitMax(u)
	}
	if sum != rep.WCET {
		t.Errorf("critical units sum %d != WCET %d", sum, rep.WCET)
	}
}
