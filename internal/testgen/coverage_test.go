package testgen

import (
	"testing"

	"wcet/internal/ga"
)

func TestBranchCoverageFull(t *testing.T) {
	gen := setup(t, `
/*@ input */ /*@ range 0 3 */ int sel;
/*@ input */ /*@ range 0 100 */ char x;
int r;
void f(void) {
    r = 0;
    switch (sel) {
    case 0: r = 1; break;
    case 1: if (x > 50) { r = 2; } break;
    default: r = 3; break;
    }
}`, "f")
	cov, err := gen.Cover("branch", Config{
		GA: ga.Config{Seed: 1, Pop: 30, MaxGens: 40, Stagnation: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Unknown != 0 {
		t.Errorf("unknown targets: %s", cov)
	}
	if cov.Ratio() != 1 {
		t.Errorf("branch coverage incomplete: %s", cov)
	}
	// Every decision edge of this program is feasible.
	if cov.Infeasible != 0 {
		t.Errorf("unexpected infeasible branches: %s", cov)
	}
}

func TestBranchCoverageDetectsDeadBranch(t *testing.T) {
	gen := setup(t, `
/*@ input */ /*@ range 0 10 */ int a;
int r;
void f(void) {
    r = 0;
    if (a > 5) {
        if (a > 20) { r = 1; }
    }
}`, "f")
	cov, err := gen.Cover("branch", Config{
		GA: ga.Config{Seed: 2, Pop: 30, MaxGens: 40, Stagnation: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// a ≤ 10, so the true edge of (a > 20) is infeasible.
	if cov.Infeasible != 1 {
		t.Errorf("infeasible branches = %d, want 1 (%s)", cov.Infeasible, cov)
	}
	if cov.Ratio() != 1 {
		t.Errorf("feasible-branch coverage incomplete: %s", cov)
	}
}

func TestStatementCoverage(t *testing.T) {
	gen := setup(t, `
/*@ input */ /*@ range 0 1 */ int a;
int r;
void f(void) {
    if (a == 1) { r = 1; } else { r = 2; }
    r = r + 1;
}`, "f")
	cov, err := gen.Cover("statement", Config{
		GA: ga.Config{Seed: 3, Pop: 20, MaxGens: 30, Stagnation: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Ratio() != 1 || cov.Unknown != 0 {
		t.Errorf("statement coverage incomplete: %s", cov)
	}
}

func TestUnknownCriterionRejected(t *testing.T) {
	gen := setup(t, `int x; void f(void) { x = 1; }`, "f")
	if _, err := gen.Cover("mcdc", Config{}); err == nil {
		t.Error("unknown criterion must error")
	}
}
