package mc

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"wcet/internal/bdd"
	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/obs"
)

// The model checker is the pipeline's most expensive stage, so it carries
// the strictest budget contract: every cap — steps, states, BDD nodes,
// wall clock — and every cancellation returns a structured error, never a
// fabricated "unreachable" verdict.

func TestSymbolicCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CheckSymbolicCtx(ctx, counterModel(), Options{})
	if !errors.Is(err, fail.ErrCancelled) {
		t.Fatalf("got (%v, %v), want ErrCancelled", res, err)
	}
}

func TestExplicitCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CheckExplicitCtx(ctx, counterModel(), Options{})
	if !errors.Is(err, fail.ErrCancelled) {
		t.Fatalf("got (%v, %v), want ErrCancelled", res, err)
	}
}

func TestSymbolicNodeBudget(t *testing.T) {
	// A 16-node table cannot hold the counter model's transition relation;
	// the kernel's typed panic must come back as a budget error carrying
	// the limit details.
	res, err := CheckSymbolicCtx(context.Background(), counterModel(), Options{MaxNodes: 16})
	if !errors.Is(err, fail.ErrBudgetExceeded) {
		t.Fatalf("got (%v, %v), want ErrBudgetExceeded", res, err)
	}
	var le *bdd.LimitError
	if !errors.As(err, &le) || le.Limit != 16 {
		t.Errorf("budget error must carry the kernel's LimitError, got %v", err)
	}
	if !strings.Contains(err.Error(), "BDD node budget") {
		t.Errorf("error message %q does not name the exhausted budget", err)
	}
}

func TestSymbolicTimeout(t *testing.T) {
	// An already-expired per-call wall clock must surface as a spent
	// budget before any step is taken.
	res, err := CheckSymbolicCtx(context.Background(), counterModel(), Options{Timeout: time.Nanosecond})
	if !errors.Is(err, fail.ErrBudgetExceeded) {
		t.Fatalf("got (%v, %v), want ErrBudgetExceeded", res, err)
	}
}

func TestSymbolicFaultSites(t *testing.T) {
	ctx := faults.With(context.Background(),
		faults.New(faults.Rule{Site: "mc.check", Index: 0}))
	if _, err := CheckSymbolicCtx(ctx, counterModel(), Options{}); !errors.Is(err, fail.ErrInfrastructure) {
		t.Errorf("mc.check fault: got %v, want attributed infrastructure failure", err)
	}
	ctx = faults.With(context.Background(),
		faults.New(faults.Rule{Site: "mc.step", Index: 0, Err: fail.Budget("", "injected")}))
	_, err := CheckSymbolicCtx(ctx, counterModel(), Options{})
	if !errors.Is(err, fail.ErrBudgetExceeded) {
		t.Errorf("mc.step fault: got %v, want the injected budget error", err)
	}
	var fe *fail.Error
	if !errors.As(err, &fe) || fe.Stage != "mc" {
		t.Errorf("mc.step fault not attributed to the mc stage: %v", err)
	}
}

func TestExplicitStateBudgetIsStructured(t *testing.T) {
	// A 3-state cap cannot hold the counter model's reachable set; the old
	// code returned a bare fmt error, now it must join the taxonomy.
	res, err := CheckExplicitCtx(context.Background(), counterModel(), Options{MaxStates: 3})
	if !errors.Is(err, fail.ErrBudgetExceeded) {
		t.Fatalf("got (%v, %v), want ErrBudgetExceeded", res, err)
	}
}

// TestFailedCheckLeavesOneSpan: a failed check still ends its volatile
// mc.symbolic span, tagged with the error kind. The node-starved and the
// cancelled call each leave exactly one event, so -trace shows the calls
// that spent a budget, not only the ones that finished.
func TestFailedCheckLeavesOneSpan(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		opt  Options
		kind string
	}{
		{"node-budget", context.Background(), Options{MaxNodes: 16}, fail.KindBudget},
		{"cancelled", cancelled, Options{}, fail.KindCancel},
	} {
		o := obs.New(obs.Config{})
		if _, err := CheckSymbolicCtx(obs.With(tc.ctx, o), counterModel(), tc.opt); err == nil {
			t.Fatalf("%s: the check succeeded", tc.name)
		}
		var spans []obs.Event
		for _, ev := range o.Trace().Events() {
			if ev.Name == "mc.symbolic" {
				spans = append(spans, ev)
			}
		}
		if len(spans) != 1 {
			t.Fatalf("%s: %d mc.symbolic events, want 1", tc.name, len(spans))
		}
		if got := spans[0].Args; !reflect.DeepEqual(got, []obs.Arg{{K: "error", V: tc.kind}}) {
			t.Errorf("%s: span args %v, want error=%s", tc.name, got, tc.kind)
		}
	}
}
