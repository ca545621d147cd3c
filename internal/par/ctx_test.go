package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wcet/internal/fail"
)

func TestForEachCtxFirstIndexWins(t *testing.T) {
	// Bodies fail at two indices with distinct errors; the pool must report
	// the lower index for every worker count.
	for _, workers := range []int{1, 8} {
		var got error
		got = ForEachCtx(context.Background(), 16, workers, func(ctx context.Context, i int) error {
			if i == 3 || i == 7 {
				return fail.Infra("stage", fmt.Errorf("body %d failed", i))
			}
			return nil
		})
		if got == nil || got.Error() != "stage: infrastructure failure: body 3 failed" {
			t.Errorf("workers=%d: error = %v, want the index-3 failure", workers, got)
		}
	}
}

func TestForEachCtxPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ForEachCtx(context.Background(), 8, workers, func(ctx context.Context, i int) error {
			if i == 2 {
				panic("kaboom")
			}
			return nil
		})
		if !errors.Is(err, fail.ErrWorkerPanic) {
			t.Fatalf("workers=%d: error = %v, want ErrWorkerPanic", workers, err)
		}
		var fe *fail.Error
		if !errors.As(err, &fe) || len(fe.Stack) == 0 {
			t.Errorf("workers=%d: panic error must carry the goroutine stack", workers)
		}
		if err.Error() != "worker panic: kaboom" {
			t.Errorf("workers=%d: error string %q not comparable across runs", workers, err.Error())
		}
	}
}

func TestForEachCtxPanicCancelsRemainingWork(t *testing.T) {
	// Every other body holds its worker until the pool cancels, so the
	// panic at index 0 is always recorded while at most one body per
	// worker is in flight, however the workers are scheduled.
	var after atomic.Int64
	ForEachCtx(context.Background(), 1000, 4, func(ctx context.Context, i int) error {
		if i == 0 {
			panic("early")
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
			t.Errorf("index %d: pool never cancelled after the panic", i)
		}
		if i > 500 {
			after.Add(1)
		}
		return nil
	})
	// Each worker runs at most one body before it sees the cancellation,
	// so no index past the first few may ever be dispatched.
	if after.Load() > 0 {
		t.Errorf("%d late indices ran after the panic; cancellation not propagated", after.Load())
	}
}

// TestForEachCtxLowerIndexOutlivesHigherFailure fails index 5 while index
// 2 is still in flight, and index 2 only decides after that — by checking
// its context first, as a retry loop does. Its context must still be live,
// so its own error wins, as it does serially.
func TestForEachCtxLowerIndexOutlivesHigherFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		failed5 := make(chan struct{})
		err := ForEachCtx(context.Background(), 8, workers, func(ctx context.Context, i int) error {
			switch i {
			case 2:
				if workers > 1 {
					select {
					case <-failed5:
					case <-time.After(10 * time.Second):
						t.Errorf("index 5 never ran while index 2 was in flight")
					}
				}
				if err := ctx.Err(); err != nil {
					return fail.Context("stage", err)
				}
				return fail.Infra("stage", fmt.Errorf("body 2 failed"))
			case 5:
				defer close(failed5)
				return fail.Infra("stage", fmt.Errorf("body 5 failed"))
			}
			return nil
		})
		if err == nil || err.Error() != "stage: infrastructure failure: body 2 failed" {
			t.Errorf("workers=%d: error = %v, want the index-2 failure", workers, err)
		}
	}
}

func TestForEachCtxParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		var ran atomic.Int64
		err := ForEachCtx(ctx, 8, workers, func(ctx context.Context, i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, fail.ErrCancelled) {
			t.Errorf("workers=%d: error = %v, want ErrCancelled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d bodies ran under a cancelled parent", workers, ran.Load())
		}
	}
}

func TestForEachCtxDeadlineMapsToBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := ForEachCtx(ctx, 1000, 4, func(ctx context.Context, i int) error {
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, fail.ErrBudgetExceeded) {
		t.Errorf("expired deadline: error = %v, want ErrBudgetExceeded", err)
	}
}

func TestForEachCtxFalloutNeverOutranksRootCause(t *testing.T) {
	// Peers that notice the cancellation return an ErrCancelled of their
	// own; the index-5 infrastructure error must still win even though the
	// fallout sits at lower indices.
	root := fail.Infra("stage", errors.New("root cause"))
	err := ForEachCtx(context.Background(), 64, 8, func(ctx context.Context, i int) error {
		if i == 5 {
			return root
		}
		select {
		case <-ctx.Done():
			return fail.Cancelled("stage", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
		return nil
	})
	if !errors.Is(err, fail.ErrInfrastructure) {
		t.Errorf("error = %v, want the root-cause infrastructure failure", err)
	}
}

func TestForEachCtxSucceedsCleanly(t *testing.T) {
	var sum atomic.Int64
	if err := ForEachCtx(context.Background(), 100, 8, func(ctx context.Context, i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatalf("clean run errored: %v", err)
	}
	if sum.Load() != 4950 {
		t.Errorf("sum = %d, want 4950 (every index exactly once)", sum.Load())
	}
}

func TestForEachCtxLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ForEachCtx(context.Background(), 32, 8, func(ctx context.Context, i int) error {
			if i == 3 {
				panic("leak check")
			}
			return fail.Infra("s", errors.New("x"))
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after failed pools", before, runtime.NumGoroutine())
}
