package core

// Reflection-based coverage of the journal fingerprint: every field of
// every options struct an analysis outcome can depend on must either move
// the fingerprint when mutated, or sit on an explicit exclusion allowlist
// with a stated reason. A field added to any of these structs without a
// classification fails this test — which is the point: the v1 fingerprint
// silently omitted the then-configurable symbolic levers, the base
// environment and the cost model maps, and each omission was a latent
// journal splice.

import (
	"reflect"
	"testing"
	"time"

	"wcet/internal/cc/ast"
	"wcet/internal/cc/parser"
	"wcet/internal/cc/sem"
	"wcet/internal/cfg"
	"wcet/internal/ga"
	"wcet/internal/interp"
	"wcet/internal/isa"
	"wcet/internal/mc"
	"wcet/internal/retry"
	"wcet/internal/sim"
	"wcet/internal/testgen"
)

// fieldSpec classifies one struct field for fingerprint purposes.
type fieldSpec struct {
	// composite: the field's identity is covered by walking its own type
	// (which must itself appear in fingerprintCoverage).
	composite bool
	// excluded: allowlist reason; empty means the field must be digested.
	excluded string
	// mutate applies a change through this field. For digested fields it is
	// mandatory and must move the fingerprint; for excluded fields it is
	// optional and must NOT move it (nil skips the behavioural check, e.g.
	// for attached subsystems that have no neutral mutation).
	mutate func(*Options)
}

var fingerprintCoverage = map[reflect.Type]map[string]fieldSpec{
	reflect.TypeOf(Options{}): {
		"FuncName": {
			excluded: "function identity is digested from the resolved declaration and graph, not the selector string",
			mutate:   func(o *Options) { o.FuncName = "someOtherSelector" },
		},
		"Bound":     {mutate: func(o *Options) { o.Bound++ }},
		"TestGen":   {composite: true},
		"MCTimeout": {mutate: func(o *Options) { o.MCTimeout += time.Second }},
		"Exhaustive": {
			excluded: "the exhaustive sweep is measurement, recomputed on every run and never journaled",
			mutate:   func(o *Options) { o.Exhaustive = !o.Exhaustive },
		},
		"MaxExhaustive": {
			excluded: "caps the measured input space only; measurement is recomputed on every run and never journaled",
			mutate:   func(o *Options) { o.MaxExhaustive++ },
		},
		"SimOptions": {
			excluded: "no journaled unit runs the simulator: GA searches interpret, model checking reads the lowered model, and measurement is recomputed on every run",
			mutate: func(o *Options) {
				o.SimOptions.MaxInstructions++
				o.SimOptions.Costs.BranchTaken++
				o.SimOptions.Costs.Costs[isa.Op(200)] = 17
			},
		},
		"Workers": {
			excluded: "results are worker-count invariant by construction; a journal written under -workers 8 must resume under -workers 1",
			mutate:   func(o *Options) { o.Workers++ },
		},
		"Obs":     {excluded: "observability sink; carries no deterministic identity"},
		"Journal": {excluded: "the journal being fingerprinted cannot be part of its own identity"},
		"Cache":   {excluded: "verdict-cache records are content-addressed independently of the journal; attaching a cache never changes results"},
	},
	reflect.TypeOf(testgen.Config{}): {
		"GA": {composite: true},
		"Workers": {
			excluded: "results are worker-count invariant by construction",
			mutate:   func(o *Options) { o.TestGen.Workers++ },
		},
		"SkipGA": {mutate: func(o *Options) { o.TestGen.SkipGA = !o.TestGen.SkipGA }},
		"SkipMC": {mutate: func(o *Options) { o.TestGen.SkipMC = !o.TestGen.SkipMC }},
		"MC":     {composite: true},
		"Base": {mutate: func(o *Options) {
			for d := range o.TestGen.Base {
				o.TestGen.Base[d]++
				return
			}
		}},
		"Retry": {composite: true},
	},
	reflect.TypeOf(mc.Options{}): {
		"MaxSteps":  {mutate: func(o *Options) { o.TestGen.MC.MaxSteps++ }},
		"MaxStates": {mutate: func(o *Options) { o.TestGen.MC.MaxStates++ }},
		"MaxNodes":  {mutate: func(o *Options) { o.TestGen.MC.MaxNodes++ }},
		"Timeout":   {mutate: func(o *Options) { o.TestGen.MC.Timeout += time.Second }},
	},
	reflect.TypeOf(ga.Config{}): {
		"Pop":            {mutate: func(o *Options) { o.TestGen.GA.Pop++ }},
		"MaxGens":        {mutate: func(o *Options) { o.TestGen.GA.MaxGens++ }},
		"Stagnation":     {mutate: func(o *Options) { o.TestGen.GA.Stagnation++ }},
		"MutRate":        {mutate: func(o *Options) { o.TestGen.GA.MutRate += 0.125 }},
		"CrossRate":      {mutate: func(o *Options) { o.TestGen.GA.CrossRate += 0.125 }},
		"Tournament":     {mutate: func(o *Options) { o.TestGen.GA.Tournament++ }},
		"Seed":           {mutate: func(o *Options) { o.TestGen.GA.Seed++ }},
		"MaxEvaluations": {mutate: func(o *Options) { o.TestGen.GA.MaxEvaluations++ }},
		"Stop":           {excluded: "cooperative-cancellation hook; a stopped run abandons the analysis rather than recording results"},
		"Obs":            {excluded: "volatile observability only; banned from canonical exports"},
		"OnTrace":        {excluded: "observation callback; must not influence the search by contract"},
	},
	reflect.TypeOf(retry.Policy{}): {
		"MaxAttempts": {mutate: func(o *Options) { o.TestGen.Retry.MaxAttempts++ }},
		"BackoffBase": {mutate: func(o *Options) { o.TestGen.Retry.BackoffBase++ }},
	},
}

// fpFixture parses a minimal program once and exposes the fingerprint as a
// function of Options alone.
type fpFixture struct {
	file *ast.File
	fn   *ast.FuncDecl
	g    *cfg.Graph
}

func newFPFixture(t *testing.T) *fpFixture {
	t.Helper()
	const src = `
/*@ input */ /*@ range 0 10 */ int a;
int r;
int f(void) {
    if (a > 3) { r = 1; } else { r = 2; }
    return r;
}`
	file, err := parser.ParseFile("fp.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sem.Check(file); err != nil {
		t.Fatal(err)
	}
	fn := file.Func("f")
	g, err := cfg.Build(fn)
	if err != nil {
		t.Fatal(err)
	}
	return &fpFixture{file: file, fn: fn, g: g}
}

func (fx *fpFixture) global(t *testing.T, name string) *ast.VarDecl {
	t.Helper()
	for _, d := range fx.file.Globals {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("global %q not found", name)
	return nil
}

// baseline fills every digestable field with a distinctive non-zero value,
// so every mutation is visible against it.
func (fx *fpFixture) baseline(t *testing.T) Options {
	return Options{
		FuncName:      "f",
		Bound:         4,
		MCTimeout:     5 * time.Second,
		Exhaustive:    true,
		MaxExhaustive: 1024,
		Workers:       2,
		TestGen: testgen.Config{
			GA: ga.Config{
				Pop: 10, MaxGens: 20, Stagnation: 5, MutRate: 0.25,
				CrossRate: 0.75, Tournament: 4, Seed: 7, MaxEvaluations: 999,
			},
			Workers: 2,
			MC:      mc.Options{MaxSteps: 100, MaxStates: 200, MaxNodes: 300, Timeout: time.Second},
			Base:    interp.Env{fx.global(t, "r"): 3},
			Retry:   retry.Policy{MaxAttempts: 2, BackoffBase: 1},
		},
		SimOptions: sim.Options{
			MaxInstructions: 1000,
			Costs: &isa.CostModel{
				Costs:       map[isa.Op]int64{isa.Op(1): 2},
				BranchTaken: 3, BranchNotTaken: 2,
				ExtCost: map[int]int64{0: 5}, ExtDefault: 7,
			},
		},
	}
}

func (fx *fpFixture) fp(opt Options) string {
	return fingerprint(fx.file, fx.fn, fx.g, opt, opt.TestGen)
}

func TestFingerprintFieldCoverage(t *testing.T) {
	fx := newFPFixture(t)
	base := fx.fp(fx.baseline(t))
	if again := fx.fp(fx.baseline(t)); again != base {
		t.Fatalf("fingerprint not deterministic on the baseline: %s vs %s", base, again)
	}

	for typ, specs := range fingerprintCoverage {
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Field(i)
			name := typ.String() + "." + field.Name
			spec, ok := specs[field.Name]
			if !ok {
				t.Errorf("%s is not classified: digest it in fingerprint() or allowlist it here with a reason", name)
				continue
			}
			if spec.composite {
				ft := field.Type
				if ft.Kind() == reflect.Ptr {
					ft = ft.Elem()
				}
				if _, walked := fingerprintCoverage[ft]; !walked {
					t.Errorf("%s is marked composite but its type %s is not walked", name, ft)
				}
				if spec.mutate == nil {
					continue
				}
			}
			if spec.excluded == "" && spec.mutate == nil {
				t.Errorf("%s claims to be digested but has no mutation to prove it", name)
				continue
			}
			if spec.mutate == nil {
				continue // allowlisted without a neutral mutation
			}
			opt := fx.baseline(t)
			spec.mutate(&opt)
			moved := fx.fp(opt) != base
			switch {
			case spec.excluded == "" && !moved:
				t.Errorf("%s: mutation did not move the fingerprint — resuming across this setting would splice two analyses", name)
			case spec.excluded != "" && moved:
				t.Errorf("%s: allowlisted as excluded (%s) but its mutation moved the fingerprint", name, spec.excluded)
			}
		}
	}

	// Presence transitions of the optional composites are identity-bearing
	// in their own right.
	opt := fx.baseline(t)
	opt.TestGen.Base = nil
	if fx.fp(opt) == base {
		t.Error("dropping the base environment did not move the fingerprint")
	}
}
