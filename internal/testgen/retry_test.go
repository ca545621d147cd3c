package testgen

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/mc"
)

// needleRangedSrc hides a 1-in-30001 needle inside a small, explicitly
// enumerable input space: the GA cannot hit it, and a starved symbolic
// engine can fail over to exact enumeration.
const needleRangedSrc = `
/*@ input */ /*@ range 0 30000 */ int a;
int r;
int f(void) {
    r = 0;
    if (a == 23456) { r = 1; }
    return r;
}`

// TestNodeBudgetFailsOverToExplicitEngine: when the symbolic engine
// exhausts a (tiny) BDD node budget on a small input space, the driver
// fails over to the explicit engine and still decides every path — with
// the failover recorded in the attempt history, identically at every
// worker count. The path models are loop-free, so the starved engine is
// the forward engine.
func TestNodeBudgetFailsOverToExplicitEngine(t *testing.T) {
	gen := setup(t, needleRangedSrc, "f")
	targets := endToEndPaths(t, gen)
	run := func(workers int) *Report {
		rep, err := gen.GenerateCtx(context.Background(), targets, Config{
			GA: smallGA(), Workers: workers,
			MC: mc.Options{MaxNodes: 64},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep
	}
	serial := run(1)
	a := gen.InputDecls()[0]
	foundNeedle := false
	failovers := 0
	for _, r := range serial.Results {
		if r.Verdict == Unknown {
			t.Errorf("path %s stayed unknown despite failover: %v", r.Path.Key(), r.Err)
		}
		for _, line := range r.Attempts {
			if strings.Contains(line, "failover: explicit engine") {
				failovers++
			}
		}
		if r.Verdict == FoundByModelChecker && r.Env != nil && r.Env[a] == 23456 {
			foundNeedle = true
		}
	}
	if failovers == 0 {
		t.Fatal("no attempt history mentions the explicit-engine failover")
	}
	if !foundNeedle {
		t.Error("the explicit engine never produced the a=23456 witness")
	}
	parallel := run(8)
	zeroDurations(serial)
	zeroDurations(parallel)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("failover reports differ across worker counts")
	}
}

func zeroDurations(rep *Report) {
	for i := range rep.Results {
		rep.Results[i].MCStats.Duration = 0
	}
}

// needleWideSrc hides its needle in an input space of 30001² vectors, far
// past the failover cap: exact enumeration is refused there.
const needleWideSrc = `
/*@ input */ /*@ range 0 30000 */ int a;
/*@ input */ /*@ range 0 30000 */ int b;
int r;
int f(void) {
    r = 0;
    if (a == 23456 && b == 12345) { r = 1; }
    return r;
}`

// TestFailoverDisabledDegradesToUnknown: on an input space past the
// failover cap, the same node budget exhaustion degrades the residue to
// Unknown with a budget cause.
func TestFailoverDisabledDegradesToUnknown(t *testing.T) {
	gen := setup(t, needleWideSrc, "f")
	targets := endToEndPaths(t, gen)
	rep, err := gen.GenerateCtx(context.Background(), targets, Config{
		GA: smallGA(),
		MC: mc.Options{MaxNodes: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	unknowns := 0
	for _, r := range rep.Results {
		if r.Verdict != Unknown {
			continue
		}
		unknowns++
		if !errors.Is(r.Err, fail.ErrBudgetExceeded) {
			t.Errorf("path %s: cause = %v, want the exhausted node budget", r.Path.Key(), r.Err)
		}
		for _, line := range r.Attempts {
			if strings.Contains(line, "failover") {
				t.Errorf("path %s: failed over past the cap: %q", r.Path.Key(), line)
			}
		}
	}
	if unknowns == 0 {
		t.Fatal("node budget never exhausted — the starved symbolic run decided everything")
	}
}

// TestTransientFaultsRetriedDeterministically: transient infrastructure
// faults on both stages are healed by the retry policy, the surviving
// attempt histories land in the report, and the whole report — histories
// included — is identical across worker counts.
func TestTransientFaultsRetriedDeterministically(t *testing.T) {
	gen := setup(t, needleSrc, "f")
	targets := endToEndPaths(t, gen)
	run := func(workers int) *Report {
		ctx := faults.With(context.Background(), faults.New(
			faults.Rule{Site: "testgen.search", Index: -1, MaxFires: 1,
				Err: fail.Infra("testgen", errors.New("injected transient search fault"))},
			faults.Rule{Site: "testgen.mc", Index: -1, MaxFires: 1,
				Err: fail.Infra("testgen", errors.New("injected transient mc fault"))}))
		rep, err := gen.GenerateCtx(ctx, targets, Config{
			GA: smallGA(), Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: transient faults within the attempt budget must heal: %v", workers, err)
		}
		return rep
	}
	serial := run(1)
	retried := 0
	for _, r := range serial.Results {
		if r.Verdict == Unknown {
			t.Errorf("path %s: healed run left an unknown: %v", r.Path.Key(), r.Err)
		}
		if len(r.Attempts) > 0 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no path carries an attempt history — the retries never happened")
	}
	parallel := run(8)
	zeroDurations(serial)
	zeroDurations(parallel)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("retried reports differ across worker counts")
	}
}

// TestBudgetFaultNeverRetried: a deterministic budget verdict must not be
// retried — pinned with a MaxFires=1 rule: a single retry would get past
// it and decide the path, so the path staying Unknown proves no second
// attempt ran.
func TestBudgetFaultNeverRetried(t *testing.T) {
	gen := setup(t, needleSrc, "f")
	targets := endToEndPaths(t, gen)
	ctx := faults.With(context.Background(), faults.New(
		faults.Rule{Site: "testgen.mc", Index: -1, MaxFires: 1,
			Err: fail.Budget("mc", "injected deterministic budget")}))
	rep, err := gen.GenerateCtx(ctx, targets, Config{GA: smallGA()})
	if err != nil {
		t.Fatal(err)
	}
	unknowns := 0
	for _, r := range rep.Results {
		if r.Verdict != Unknown {
			continue
		}
		unknowns++
		if len(r.Attempts) != 0 {
			t.Errorf("path %s: budget fault has attempt history %v — it was retried", r.Path.Key(), r.Attempts)
		}
	}
	if unknowns == 0 {
		t.Fatal("the injected budget fault never fired — or it was retried past MaxFires")
	}
}
