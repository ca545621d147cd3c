package ledger_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"wcet/internal/core"
	"wcet/internal/ga"
	"wcet/internal/interp"
	"wcet/internal/isa"
	"wcet/internal/ledger"
	"wcet/internal/mc"
	"wcet/internal/retry"
	"wcet/internal/sim"
	"wcet/internal/testgen"
	"wcet/internal/vcache"
)

// serializableOptions fills every spec-covered field with a distinctive
// non-zero value, so a silent drop in either direction of the round trip
// is visible.
func serializableOptions() core.Options {
	return core.Options{
		FuncName:      "step",
		Bound:         7,
		Exhaustive:    true,
		MaxExhaustive: 321,
		MCTimeout:     9 * time.Second,
		Workers:       5,
		SimOptions:    sim.Options{MaxInstructions: 123456},
		TestGen: testgen.Config{
			GA: ga.Config{
				Pop: 11, MaxGens: 22, Stagnation: 33, MutRate: 0.125,
				CrossRate: 0.75, Tournament: 4, Seed: 2005, MaxEvaluations: 5000,
			},
			SkipGA: false,
			SkipMC: true,
			Retry:  retry.Policy{MaxAttempts: 6, BackoffBase: 17},
		},
	}
}

func TestSpecRoundTrip(t *testing.T) {
	opt := serializableOptions()
	spec, err := ledger.SpecFor("int f(void) { return 0; }", opt)
	if err != nil {
		t.Fatal(err)
	}
	got := spec.Options()
	if !reflect.DeepEqual(got, opt) {
		t.Errorf("SpecFor ∘ Options is not the identity on serializable options:\ngot  %+v\nwant %+v", got, opt)
	}

	// The spec must survive its on-disk representation too.
	data, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var back ledger.Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("JSON round trip lost information:\ngot  %+v\nwant %+v", back, spec)
	}
}

func TestSpecForRejectsNonSerializableOptions(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"ga-stop-hook", func(o *core.Options) { o.TestGen.GA.Stop = func() bool { return false } }},
		{"ga-trace-hook", func(o *core.Options) { o.TestGen.GA.OnTrace = func(interp.Env, *interp.Trace) {} }},
		{"base-env", func(o *core.Options) { o.TestGen.Base = interp.Env{nil: 1} }},
		{"cost-model", func(o *core.Options) { o.SimOptions.Costs = &isa.CostModel{} }},
		{"vcache", func(o *core.Options) { o.Cache = &vcache.Store{} }},
	}
	for _, tc := range cases {
		opt := serializableOptions()
		tc.mutate(&opt)
		if _, err := ledger.SpecFor("int f(void){return 0;}", opt); err == nil {
			t.Errorf("%s: SpecFor accepted a non-serializable option", tc.name)
		}
	}
}

// TestSpecCoversOptionSurface is the tripwire that keeps spec.go honest:
// every field of every option struct the spec flattens must be classified
// here — serialized (round-trips through SpecFor/Options), recursed
// (a nested struct whose own fields are classified), run-scoped (owned by
// the coordinator, never shipped), or rejected (SpecFor errors on it). A new
// field in any of these structs fails this test until the spec gains it
// or this table consciously excludes it.
func TestSpecCoversOptionSurface(t *testing.T) {
	surface := map[reflect.Type]map[string]string{
		reflect.TypeOf(core.Options{}): {
			"FuncName": "serialized", "Bound": "serialized", "TestGen": "recursed",
			"MCTimeout": "serialized", "Exhaustive": "serialized", "MaxExhaustive": "serialized",
			"SimOptions": "recursed", "Workers": "serialized",
			"Obs": "run-scoped", "Journal": "rejected", "Cache": "rejected",
		},
		reflect.TypeOf(testgen.Config{}): {
			"GA": "recursed", "Workers": "serialized", "SkipGA": "serialized",
			"SkipMC": "serialized", "MC": "recursed",
			"Base": "rejected", "Retry": "recursed",
		},
		reflect.TypeOf(ga.Config{}): {
			"Pop": "serialized", "MaxGens": "serialized", "Stagnation": "serialized",
			"MutRate": "serialized", "CrossRate": "serialized", "Tournament": "serialized",
			"Seed": "serialized", "MaxEvaluations": "serialized",
			"Stop": "rejected", "Obs": "rejected", "OnTrace": "rejected",
		},
		reflect.TypeOf(mc.Options{}): {
			"MaxSteps": "serialized", "MaxStates": "serialized", "MaxNodes": "serialized",
			"Timeout": "serialized",
		},
		reflect.TypeOf(sim.Options{}): {
			"MaxInstructions": "serialized", "Costs": "rejected",
		},
		reflect.TypeOf(retry.Policy{}): {
			"MaxAttempts": "serialized", "BackoffBase": "serialized",
		},
	}
	for typ, fields := range surface {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if _, ok := fields[name]; !ok {
				t.Errorf("%s.%s is not classified in the spec surface table — teach ledger.Spec about it (or reject it in SpecFor) and classify it here", typ, name)
			}
			delete(fields, name)
		}
		for name := range fields {
			t.Errorf("%s.%s is classified but no longer exists", typ, name)
		}
	}
}

func TestReadAssignmentValidates(t *testing.T) {
	dir := t.TempDir()
	spec, err := ledger.SpecFor("int f(void){return 0;}", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/a.json"
	good := &ledger.Assignment{ID: "r001-w00", Fingerprint: "fp", Keys: []string{"ga/k"}, Journal: dir + "/w.journal", Spec: spec}
	if err := ledger.WriteAssignment(path, good); err != nil {
		t.Fatal(err)
	}
	back, err := ledger.ReadAssignment(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, good) {
		t.Errorf("assignment round trip:\ngot  %+v\nwant %+v", back, good)
	}
	for name, a := range map[string]*ledger.Assignment{
		"no-keys":    {ID: "x", Journal: "j"},
		"no-journal": {ID: "x", Keys: []string{"k"}},
	} {
		if err := ledger.WriteAssignment(path, a); err != nil {
			t.Fatal(err)
		}
		if _, err := ledger.ReadAssignment(path); err == nil {
			t.Errorf("%s: ReadAssignment accepted an invalid assignment", name)
		} else if !strings.Contains(err.Error(), "assignment") {
			t.Errorf("%s: unhelpful error %v", name, err)
		}
	}
}
