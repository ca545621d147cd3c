package faults

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"wcet/internal/fail"
)

func TestNoInjectorIsNoOp(t *testing.T) {
	if err := Fire(context.Background(), "mc.step", 3); err != nil {
		t.Errorf("Fire without injector = %v, want nil", err)
	}
}

func TestFailRuleFiresOnExactIndexOnly(t *testing.T) {
	custom := errors.New("boom")
	ctx := With(context.Background(), New(Rule{Site: "measure.run", Index: 2, Err: custom}))
	for i := 0; i < 5; i++ {
		err := Fire(ctx, "measure.run", i)
		if i == 2 && !errors.Is(err, custom) {
			t.Errorf("index 2: got %v, want the armed error", err)
		}
		if i != 2 && err != nil {
			t.Errorf("index %d: got %v, want nil", i, err)
		}
	}
	if err := Fire(ctx, "measure.exhaustive", 2); err != nil {
		t.Errorf("other site fired: %v", err)
	}
}

func TestWildcardIndexFiresEverywhere(t *testing.T) {
	ctx := With(context.Background(), New(Rule{Site: "mc.step", Index: -1}))
	for i := 0; i < 3; i++ {
		if err := Fire(ctx, "mc.step", i); err == nil {
			t.Errorf("index %d: wildcard rule did not fire", i)
		}
	}
}

func TestDefaultErrorNamesSiteAndIndex(t *testing.T) {
	ctx := With(context.Background(), New(Rule{Site: "testgen.mc", Index: 4}))
	err := Fire(ctx, "testgen.mc", 4)
	if err == nil || err.Error() != "injected fault at testgen.mc#4" {
		t.Errorf("default error = %v", err)
	}
}

func TestPanicModeCarriesPanicValue(t *testing.T) {
	ctx := With(context.Background(), New(Rule{Site: "measure.run", Index: 1, Mode: Panic}))
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok || pv.Site != "measure.run" || pv.Index != 1 {
			t.Errorf("recovered %v, want PanicValue{measure.run, 1}", r)
		}
	}()
	Fire(ctx, "measure.run", 1)
	t.Fatal("panic mode did not panic")
}

func TestStallReturnsContextErrorWhenCancelled(t *testing.T) {
	in := New(Rule{Site: "mc.check", Index: 0, Mode: Stall, Delay: time.Minute})
	ctx, cancel := context.WithCancel(With(context.Background(), in))
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := Fire(ctx, "mc.check", 0)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("stalled site must surface the context error, got %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("stall ignored the cancellation")
	}
}

func TestStallCompletesWithoutCancel(t *testing.T) {
	ctx := With(context.Background(), New(Rule{Site: "mc.check", Index: 0, Mode: Stall, Delay: time.Millisecond}))
	if err := Fire(ctx, "mc.check", 0); err != nil {
		t.Errorf("completed stall must return nil, got %v", err)
	}
}

func TestProbabilisticRuleIsPureInSeedSiteIndex(t *testing.T) {
	fire := func() []string {
		in := New(Rule{Site: "measure.run", Index: -1, Prob: 0.3, Seed: 99})
		ctx := With(context.Background(), in)
		for i := 0; i < 200; i++ {
			Fire(ctx, "measure.run", i)
		}
		return in.Fired()
	}
	a, b := fire(), fire()
	if !reflect.DeepEqual(a, b) {
		t.Error("probabilistic rule fired differently on identical runs")
	}
	if len(a) == 0 || len(a) == 200 {
		t.Errorf("prob 0.3 fired %d/200 times, want a strict subset", len(a))
	}
}

func TestFiredLogIsSortedAndLabelled(t *testing.T) {
	in := New(Rule{Site: "mc.step", Index: -1})
	ctx := With(context.Background(), in)
	Fire(ctx, "mc.step", 2)
	Fire(ctx, "mc.step", 0)
	want := []string{"mc.step#0:fail", "mc.step#2:fail"}
	if got := in.Fired(); !reflect.DeepEqual(got, want) {
		t.Errorf("Fired() = %v, want %v", got, want)
	}
}

func TestMaxFiresModelsTransientFaults(t *testing.T) {
	in := New(Rule{Site: "measure.run", Index: -1, MaxFires: 2})
	ctx := With(context.Background(), in)
	// Each (site, index) pair gets its own budget of 2 firings: attempts 1
	// and 2 fail, attempt 3 succeeds — independently per pair.
	for _, index := range []int{0, 1} {
		for attempt := 1; attempt <= 2; attempt++ {
			if err := Fire(ctx, "measure.run", index); err == nil {
				t.Errorf("index %d attempt %d: transient fault did not fire", index, attempt)
			}
		}
		if err := Fire(ctx, "measure.run", index); err != nil {
			t.Errorf("index %d attempt 3: fault still firing after MaxFires: %v", index, err)
		}
	}
	if got := len(in.Fired()); got != 4 {
		t.Errorf("fired %d times, want 4 (2 per pair)", got)
	}
}

// TestFiringsReturnFreshErrors fires one rule twice and requires two
// distinct error values that both still match the armed error, for a
// *fail.Error and for a foreign error alike.
func TestFiringsReturnFreshErrors(t *testing.T) {
	for _, armed := range []error{fail.Budget("mc", "injected"), errors.New("boom")} {
		ctx := With(context.Background(), New(Rule{Site: "testgen.mc", Index: -1, Err: armed}))
		a, b := Fire(ctx, "testgen.mc", 1), Fire(ctx, "testgen.mc", 2)
		if a == b || a == armed {
			t.Errorf("%v: firings share one error value", armed)
		}
		if !errors.Is(a, armed) && !errors.Is(a, fail.ErrBudgetExceeded) {
			t.Errorf("firing %v does not match the armed error %v", a, armed)
		}
		if a.Error() != armed.Error() {
			t.Errorf("firing renders %q, want %q", a, armed)
		}
	}
}
