package wcet

import (
	"strings"
	"testing"
)

const demoSrc = `
/*@ input */ /*@ range 0 3 */ int mode;
/*@ input */ /*@ range 0 50 */ char load;
int duty;
void governor(void) {
    duty = 0;
    switch (mode) {
    case 0:
        duty = 0;
        break;
    case 1:
        if (load > 30) { duty = 80; } else { duty = 40; }
        break;
    case 2:
        duty = 100;
        if (load > 45) { duty = 90; }
        break;
    default:
        duty = 10;
        break;
    }
    if (duty > 95) { duty = 95; }
}
`

func TestAnalyzeEndToEnd(t *testing.T) {
	rep, err := Analyze(demoSrc, Options{
		FuncName:   "governor",
		Bound:      4,
		Exhaustive: true,
		TestGen: TestGenConfig{
			GA: GAConfig{Seed: 1, Pop: 32, MaxGens: 40, Stagnation: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WCET <= 0 {
		t.Fatal("no WCET bound computed")
	}
	if rep.ExhaustiveWCET <= 0 {
		t.Fatal("exhaustive ground truth missing")
	}
	if rep.WCET < rep.ExhaustiveWCET {
		t.Errorf("bound %d below exhaustive max %d: unsafe", rep.WCET, rep.ExhaustiveWCET)
	}
	if rep.Overestimate() > 0.5 {
		t.Errorf("overestimate %.0f%% suspiciously loose", rep.Overestimate()*100)
	}
	if rep.Plan.IP <= 0 || len(rep.Plan.Units) == 0 {
		t.Error("plan not populated")
	}
	if len(rep.TestGen.Results) == 0 {
		t.Error("no generation results")
	}
	if !rep.Measurement.Covered() {
		// Units whose every path is infeasible are legitimately unobserved;
		// everything else must be measured.
		for i, ut := range rep.Measurement.Times {
			if ut.Samples == 0 && ut.Max != 0 {
				t.Errorf("unit %d unmeasured with nonzero weight", i)
			}
		}
	}
}

func TestAnalyzeDefaults(t *testing.T) {
	rep, err := Analyze(demoSrc, Options{
		TestGen: TestGenConfig{GA: GAConfig{Seed: 2, Pop: 24, MaxGens: 30, Stagnation: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fn.Name != "governor" {
		t.Errorf("default function = %q, want first function", rep.Fn.Name)
	}
	if rep.ExhaustiveWCET != -1 {
		t.Error("exhaustive must be off by default")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze("int x = ;", Options{}); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := Analyze("void f(void) { y = 1; }", Options{}); err == nil {
		t.Error("semantic error not reported")
	}
	if _, err := Analyze(demoSrc, Options{FuncName: "missing"}); err == nil {
		t.Error("unknown function not reported")
	}
	_, err := Analyze("int x;", Options{})
	if err == nil || !strings.Contains(err.Error(), "no function") {
		t.Errorf("missing function error = %v", err)
	}
}

func TestVerdictsSurfaceInReport(t *testing.T) {
	src := `
/*@ input */ int a;
int r;
void f(void) {
    r = 0;
    if (a > 5) {
        if (a < 3) { r = 1; }
    }
}
`
	rep, err := Analyze(src, Options{
		Bound: 1,
		TestGen: TestGenConfig{
			GA: GAConfig{Seed: 3, Pop: 24, MaxGens: 30, Stagnation: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InfeasiblePaths == 0 {
		t.Error("the contradictory nest must yield an infeasible verdict")
	}
	seen := map[Verdict]bool{}
	for _, r := range rep.TestGen.Results {
		seen[r.Verdict] = true
	}
	if !seen[Infeasible] {
		t.Error("no Infeasible verdict surfaced")
	}
}
