package testgen

import (
	"testing"

	"wcet/internal/cc/ast"
	"wcet/internal/cc/parser"
	"wcet/internal/cc/sem"
	"wcet/internal/cfg"
	"wcet/internal/ga"
	"wcet/internal/interp"
	"wcet/internal/paths"
)

func setup(t *testing.T, src, name string) *Generator {
	t.Helper()
	f, err := parser.ParseFile("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := sem.Check(f); err != nil {
		t.Fatalf("sem: %v", err)
	}
	fn := f.Func(name)
	g, err := cfg.Build(fn)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return New(f, fn, g)
}

const hybridSrc = `
/*@ input */ /*@ range 0 200 */ int a;
/*@ input */ /*@ range 0 200 */ int b;
int r;
int f(void) {
    r = 0;
    if (a > 100) { r = 1; }
    if (a == 173 && b == a + 9) { r = r + 2; }
    if (a > 150) {
        if (a < 120) { r = 9; }
    }
    return r;
}`

func endToEndPaths(t *testing.T, gen *Generator) []paths.Path {
	t.Helper()
	ps, err := paths.Enumerate(cfg.WholeFunction(gen.G), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestHybridCoversEverythingFeasible(t *testing.T) {
	gen := setup(t, hybridSrc, "f")
	targets := endToEndPaths(t, gen)
	rep, err := gen.Generate(targets, Config{
		GA: ga.Config{Seed: 42, Pop: 40, MaxGens: 60, Stagnation: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Verdict]int{}
	for _, r := range rep.Results {
		counts[r.Verdict]++
		if r.Verdict == Unknown {
			t.Errorf("path %s unknown: %v", r.Path.Key(), r.Err)
		}
		// Every found datum must replay onto its path.
		if r.Verdict == FoundByHeuristic || r.Verdict == FoundByModelChecker {
			tr, err := gen.M.Run(gen.G, r.Env.Clone())
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !paths.Covers(gen.G, tr, r.Path) {
				t.Errorf("datum for %s does not cover it", r.Path.Key())
			}
		}
	}
	// Cross-decision constraints (a==173 needs a>100 and a>150; a<120
	// contradicts a>150) leave exactly 4 of the 12 end-to-end paths
	// feasible.
	if counts[Infeasible] != 8 {
		t.Errorf("infeasible = %d, want 8 (%s)", counts[Infeasible], rep.Summary())
	}
	if counts[FoundByHeuristic]+counts[FoundByModelChecker] != 4 {
		t.Errorf("coverage incomplete: %s", rep.Summary())
	}
	// The equality needle (a==173 && b==a+9) should be beyond the GA's easy
	// reach only sometimes; whichever stage finds it, the split must be
	// recorded coherently.
	if rep.HeuristicShare < 0.5 {
		t.Errorf("heuristic share %.2f unexpectedly low (%s)", rep.HeuristicShare, rep.Summary())
	}
}

func TestModelCheckerOnlyFindsNeedle(t *testing.T) {
	gen := setup(t, `
/*@ input */ int a;
int r;
int f(void) {
    r = 0;
    if (a == -30000) { r = 1; }
    return r;
}`, "f")
	targets := endToEndPaths(t, gen)
	rep, err := gen.Generate(targets, Config{SkipGA: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Verdict == Unknown || r.Verdict == FoundByHeuristic {
			t.Errorf("path %s: verdict %s with GA disabled", r.Path.Key(), r.Verdict)
		}
	}
}

func TestHeuristicOnlyLeavesUnknowns(t *testing.T) {
	gen := setup(t, `
/*@ input */ int a;
int r;
int f(void) {
    r = 0;
    if (a > 5) {
        if (a < 3) { r = 1; }
    }
    return r;
}`, "f")
	targets := endToEndPaths(t, gen)
	rep, err := gen.Generate(targets, Config{
		GA:     ga.Config{Seed: 1, Pop: 20, MaxGens: 20, Stagnation: 5},
		SkipMC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	unknowns := 0
	for _, r := range rep.Results {
		if r.Verdict == Unknown {
			unknowns++
		}
	}
	if unknowns != 1 {
		t.Errorf("unknowns = %d, want 1 (the infeasible path, unresolvable without MC)", unknowns)
	}
}

func TestSegmentTargets(t *testing.T) {
	// Target paths inside program segments, not end-to-end — the actual
	// measurement scenario after partitioning.
	gen := setup(t, hybridSrc, "f")
	var segPaths []paths.Path
	// Use the then-arm segments from the partition tree.
	tree := buildTree(t, gen.G)
	for _, child := range tree {
		ps, err := paths.Enumerate(child, 0)
		if err != nil {
			t.Fatal(err)
		}
		segPaths = append(segPaths, ps...)
	}
	if len(segPaths) == 0 {
		t.Fatal("no segment paths")
	}
	rep, err := gen.Generate(segPaths, Config{
		GA: ga.Config{Seed: 9, Pop: 40, MaxGens: 60, Stagnation: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Verdict == Unknown {
			t.Errorf("segment path %s unresolved: %v", r.Path.Key(), r.Err)
		}
	}
}

// buildTree returns the regions of the root's direct child segments.
func buildTree(t *testing.T, g *cfg.Graph) []cfg.Region {
	t.Helper()
	var out []cfg.Region
	if g.Arms == nil {
		t.Fatal("no arms")
	}
	for _, a := range g.Arms.Children {
		out = append(out, a.Region(g))
	}
	return out
}

func TestBaseEnvThreadsThroughBothStages(t *testing.T) {
	gen := setup(t, `
/*@ input */ /*@ range 0 3 */ int sel;
int state, r;
int f(void) {
    r = 0;
    if (state == 7) {
        if (sel == 2) { r = 1; }
    }
    return r;
}`, "f")
	var stateDecl *ast.VarDecl
	for _, gl := range gen.File.Globals {
		if gl.Name == "state" {
			stateDecl = gl
		}
	}
	targets := endToEndPaths(t, gen)
	base := interp.Env{stateDecl: 7}
	rep, err := gen.Generate(targets, Config{
		GA:   ga.Config{Seed: 4, Pop: 30, MaxGens: 40, Stagnation: 10},
		Base: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, r := range rep.Results {
		switch r.Verdict {
		case FoundByHeuristic, FoundByModelChecker:
			found++
		case Unknown:
			t.Errorf("unknown: %v", r.Err)
		}
	}
	// With state pinned to 7, all paths through state==7 are feasible;
	// with the same paths under state==0 most would be infeasible.
	if found < 2 {
		t.Errorf("found = %d, want ≥ 2 with base state=7 (%s)", found, rep.Summary())
	}
}

// TestNegativeGuardOnNarrowedInput is the regression for a mixed-signedness
// comparison: range analysis narrows x in 0..100 to 7-bit unsigned, and the
// guard x < -7 must stay infeasible instead of yielding the witness x = 69.
func TestNegativeGuardOnNarrowedInput(t *testing.T) {
	for _, typ := range []string{"char", "int"} {
		gen := setup(t, "/*@ input */ /*@ range 0 100 */ "+typ+" x; char y;\n"+
			"void f(void) { if (x < -7) { y = 1; } else { y = 2; } }\n", "f")
		rep, err := gen.Generate(endToEndPaths(t, gen), Config{SkipGA: true})
		if err != nil {
			t.Fatal(err)
		}
		counts := map[Verdict]int{}
		for _, r := range rep.Results {
			counts[r.Verdict]++
		}
		if counts[Infeasible] != 1 || counts[FoundByModelChecker] != 1 {
			t.Errorf("%s x in 0..100, guard x < -7: %s", typ, rep.Summary())
		}
	}
}
