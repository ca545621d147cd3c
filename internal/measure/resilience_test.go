package measure

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/partition"
)

func (fx *fixture) planAndInputs(t *testing.T) (*partition.Plan, []InputVar) {
	t.Helper()
	return partition.MustPartitionBound(fx.g, 1), []InputVar{
		{Decl: fx.global("sel"), Lo: 0, Hi: 3},
		{Decl: fx.global("flag"), Lo: 0, Hi: 1},
	}
}

func TestCampaignInjectedFaultAttributedToVector(t *testing.T) {
	fx := setup(t, measSrc, "f")
	plan, _ := fx.planAndInputs(t)
	data := fx.allInputs(t)
	for _, workers := range []int{1, 4} {
		ctx := faults.With(context.Background(),
			faults.New(faults.Rule{Site: "measure.run", Index: 1}))
		res, err := CampaignCtx(ctx, plan, fx.vm, data, workers)
		if res != nil || err == nil {
			t.Fatalf("workers=%d: injected fault not surfaced: (%v, %v)", workers, res, err)
		}
		if !errors.Is(err, fail.ErrInfrastructure) {
			t.Errorf("workers=%d: got %v, want infrastructure failure", workers, err)
		}
		if !strings.Contains(err.Error(), "vector 1") {
			t.Errorf("workers=%d: error %q not attributed to vector 1", workers, err)
		}
	}
}

func TestCampaignErrorDeterministicAcrossWorkers(t *testing.T) {
	fx := setup(t, measSrc, "f")
	plan, _ := fx.planAndInputs(t)
	data := fx.allInputs(t)
	run := func(workers int) string {
		// Two armed faults: the lower-indexed one must win regardless of
		// which worker reaches which vector first.
		ctx := faults.With(context.Background(), faults.New(
			faults.Rule{Site: "measure.run", Index: 5},
			faults.Rule{Site: "measure.run", Index: 2}))
		_, err := CampaignCtx(ctx, plan, fx.vm, data, workers)
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		return err.Error()
	}
	serial := run(1)
	if !strings.Contains(serial, "vector 2") {
		t.Fatalf("serial error %q must blame the lowest-indexed fault", serial)
	}
	for i := 0; i < 5; i++ {
		if p := run(4); p != serial {
			t.Fatalf("error differs across workers:\n  1: %s\n  4: %s", serial, p)
		}
	}
}

func TestCampaignInjectedPanicIsolated(t *testing.T) {
	fx := setup(t, measSrc, "f")
	plan, _ := fx.planAndInputs(t)
	data := fx.allInputs(t)
	ctx := faults.With(context.Background(),
		faults.New(faults.Rule{Site: "measure.run", Index: 3, Mode: faults.Panic}))
	_, err := CampaignCtx(ctx, plan, fx.vm, data, 4)
	if !errors.Is(err, fail.ErrWorkerPanic) {
		t.Fatalf("got %v, want ErrWorkerPanic", err)
	}
	var fe *fail.Error
	if !errors.As(err, &fe) || len(fe.Stack) == 0 {
		t.Error("panic error must carry the worker stack")
	}
}

func TestCampaignCancelled(t *testing.T) {
	fx := setup(t, measSrc, "f")
	plan, _ := fx.planAndInputs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CampaignCtx(ctx, plan, fx.vm, fx.allInputs(t), 4); !errors.Is(err, fail.ErrCancelled) {
		t.Errorf("cancelled campaign: got %v, want ErrCancelled", err)
	}
}

func TestExhaustiveInjectedFault(t *testing.T) {
	fx := setup(t, measSrc, "f")
	ctx := faults.With(context.Background(),
		faults.New(faults.Rule{Site: "measure.exhaustive", Index: 0}))
	if _, err := ExhaustiveMaxCtx(ctx, fx.vm, fx.allInputs(t), 2); err == nil ||
		!strings.Contains(err.Error(), "vector 0") {
		t.Errorf("exhaustive fault: got %v, want vector-0 attribution", err)
	}
}

// TestCampaignStallThatCompletesIsInvisible pins the stall site for the
// measurement stage: a short stall at campaign entry delays the campaign
// but must not change its result in any way.
func TestCampaignStallThatCompletesIsInvisible(t *testing.T) {
	fx := setup(t, measSrc, "f")
	plan, _ := fx.planAndInputs(t)
	data := fx.allInputs(t)
	clean, err := CampaignCtx(context.Background(), plan, fx.vm, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := faults.With(context.Background(), faults.New(
		faults.Rule{Site: "measure.campaign", Index: 0, Mode: faults.Stall, Delay: time.Millisecond}))
	stalled, err := CampaignCtx(ctx, plan, fx.vm, data, 4)
	if err != nil {
		t.Fatalf("completed stall must be invisible: %v", err)
	}
	if !reflect.DeepEqual(clean, stalled) {
		t.Error("stall that completed changed the campaign result")
	}
}

// TestCampaignStallExpiredDeadlineIsBudget: a stalled campaign entry whose
// context deadline expires must surface as a spent budget, the signature
// deadline-driven callers (and the retry policy) key on.
func TestCampaignStallExpiredDeadlineIsBudget(t *testing.T) {
	fx := setup(t, measSrc, "f")
	plan, _ := fx.planAndInputs(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ctx = faults.With(ctx, faults.New(
		faults.Rule{Site: "measure.campaign", Index: 0, Mode: faults.Stall, Delay: 10 * time.Second}))
	_, err := CampaignCtx(ctx, plan, fx.vm, fx.allInputs(t), 4)
	if !errors.Is(err, fail.ErrBudgetExceeded) {
		t.Errorf("stalled campaign past its deadline: got %v, want ErrBudgetExceeded", err)
	}
}

// TestCampaignTransientFaultHealedByRetry: a MaxFires-bounded infrastructure
// fault on one vector is retried and the campaign result matches a clean
// run exactly.
func TestCampaignTransientFaultHealedByRetry(t *testing.T) {
	fx := setup(t, measSrc, "f")
	plan, _ := fx.planAndInputs(t)
	data := fx.allInputs(t)
	clean, err := CampaignCtx(context.Background(), plan, fx.vm, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := faults.With(context.Background(), faults.New(
		faults.Rule{Site: "measure.run", Index: 2, MaxFires: 2,
			Err: fail.Infra("measure", errors.New("injected transient"))}))
	healed, err := CampaignCtx(ctx, plan, fx.vm, data, 4)
	if err != nil {
		t.Fatalf("transient fault within the attempt budget must heal: %v", err)
	}
	if !reflect.DeepEqual(clean, healed) {
		t.Error("healed campaign result differs from clean run")
	}
}

// TestFailedCampaignsLeakNoGoroutines drives every failure mode — fault,
// panic, cancellation — repeatedly and checks the goroutine count settles
// back, so a long-running analysis service can absorb failed campaigns.
func TestFailedCampaignsLeakNoGoroutines(t *testing.T) {
	fx := setup(t, measSrc, "f")
	plan, _ := fx.planAndInputs(t)
	data := fx.allInputs(t)
	before := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		ctx := faults.With(context.Background(),
			faults.New(faults.Rule{Site: "measure.run", Index: 1}))
		CampaignCtx(ctx, plan, fx.vm, data, 4)
		ctx = faults.With(context.Background(),
			faults.New(faults.Rule{Site: "measure.run", Index: 0, Mode: faults.Panic}))
		CampaignCtx(ctx, plan, fx.vm, data, 4)
		cctx, cancel := context.WithCancel(context.Background())
		cancel()
		CampaignCtx(cctx, plan, fx.vm, data, 4)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after failed campaigns", before, runtime.NumGoroutine())
}
