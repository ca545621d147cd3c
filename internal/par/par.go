// Package par provides the bounded worker-pool primitive behind the
// analysis pipeline's Workers knob.
//
// Every parallel stage of the pipeline (GA searches, model-checker calls,
// measurement replays, the partitioning sweep) fans out through ForEach /
// ForEachWorker and merges its results deterministically: items are indexed,
// workers pull indices in ascending order, and callers fold outcomes by
// index so the observable result is independent of completion order — and
// therefore of the worker count. Workers == 1 runs inline on the calling
// goroutine with no goroutines spawned, reproducing the serial pipeline
// exactly.
package par

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wcet/internal/fail"
	"wcet/internal/obs"
)

// Workers normalises a Workers knob: n > 0 is used as given, 0 (the
// default) means one worker per available CPU (runtime.GOMAXPROCS(0)), and
// negative values clamp to 1.
func Workers(n int) int {
	switch {
	case n > 0:
		return n
	case n == 0:
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// ForEach runs body(i) for every i in [0, n) on at most `workers`
// goroutines. With workers <= 1 (or n <= 1) the loop runs inline in index
// order. Indices are handed out in ascending order in both modes; bodies
// writing to distinct elements of a shared slice need no locking, and all
// writes are visible to the caller when ForEach returns.
func ForEach(n, workers int, body func(i int)) {
	ForEachWorker(n, workers, func(int) func(int) { return body })
}

// ForEachWorker is ForEach with per-worker state: each worker goroutine
// calls newWorker(worker) once — worker is its index in [0, workers) — and
// feeds its indices to the returned body. Use it when the body needs a
// resource that is cheap to duplicate but not goroutine-safe to share (an
// interpreter machine, a simulator instance).
func ForEachWorker(n, workers int, newWorker func(worker int) func(i int)) {
	if n <= 0 {
		return
	}
	w := workers
	if w > n {
		w = n
	}
	if w <= 1 {
		body := newWorker(0)
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			body := newWorker(worker)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}(k)
	}
	wg.Wait()
}

// ForEachCtx is ForEach for fallible, cancellable bodies: see
// ForEachWorkerCtx for the full contract.
func ForEachCtx(ctx context.Context, n, workers int, body func(ctx context.Context, i int) error) error {
	return ForEachWorkerCtx(ctx, n, workers, func(int) func(context.Context, int) error { return body })
}

// ForEachWorkerCtx is ForEachWorker with cancellation, error collection and
// panic isolation — the primitive behind every fallible pipeline stage.
//
// Each body receives a context derived from ctx. When a body returns a
// non-nil error or panics, no higher index is dispatched any more and the
// contexts of in-flight bodies with higher indices are cancelled; in-flight
// bodies are expected to notice the cancellation cooperatively. Bodies with
// lower indices keep running uncancelled, because one of them may fail
// too. A panicking body is recovered into a *fail.Error of kind
// ErrWorkerPanic carrying the goroutine stack — a worker explosion never
// takes down the process and never leaks the pool's goroutines (the pool
// always joins every worker before returning).
//
// The returned error is deterministic under deterministic bodies:
// first-index-wins. Among all recorded non-cancellation errors the one
// with the lowest index is returned. In serial mode dispatch stops at the
// first error; in parallel mode every index below a failure runs to
// completion with a live context, so the lowest failing index records its
// own error however the workers are scheduled — even a body that checks
// its context before doing anything. Errors that are themselves
// cancellation fallout (bodies unwinding because a peer failed) never win
// over the peer's root-cause error. When the parent ctx itself is
// cancelled the pool reports it via the fail taxonomy: ErrCancelled for an
// explicit cancel, ErrBudgetExceeded for an expired deadline.
func ForEachWorkerCtx(ctx context.Context, n, workers int, newWorker func(worker int) func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return fail.Context("", ctx.Err())
	}
	w := workers
	if w > n {
		w = n
	}
	errs := make([]error, n)

	// Pool-level observability is volatile by nature — task durations and
	// utilization are wall clock — so it never enters a canonical export,
	// and an un-observed pool pays only a nil comparison per task.
	o := obs.From(ctx)
	var busy atomic.Int64
	poolStart := time.Now()
	run := func(bctx context.Context, body func(context.Context, int) error, i int) error {
		if o == nil {
			return runIsolated(bctx, body, i)
		}
		t0 := time.Now()
		err := runIsolated(bctx, body, i)
		d := time.Since(t0).Nanoseconds()
		busy.Add(d)
		o.CountV("par.tasks", 1)
		o.HistV("par.task_ns", d)
		return err
	}
	finishPool := func() {
		if o == nil {
			return
		}
		o.HistV("par.pool.workers", int64(w))
		if wall := time.Since(poolStart).Nanoseconds(); wall > 0 {
			o.HistV("par.pool.utilization_bp", busy.Load()*10000/(wall*int64(w)))
		}
	}

	if w <= 1 {
		body := newWorker(0)
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if errs[i] = run(ctx, body, i); errs[i] != nil {
				break
			}
		}
		finishPool()
		return pickError(ctx, errs)
	}

	// lowest is the lowest failing index so far (n while none failed);
	// inflight holds the cancel functions of the running bodies by index.
	var mu sync.Mutex
	lowest := n
	inflight := map[int]context.CancelFunc{}
	begin := func(i int) (context.Context, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i > lowest {
			return nil, false
		}
		bctx, cancel := context.WithCancel(ctx)
		inflight[i] = cancel
		return bctx, true
	}
	end := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		inflight[i]()
		delete(inflight, i)
		if err == nil || i >= lowest {
			return
		}
		lowest = i
		for j, cancel := range inflight {
			if j > i {
				cancel()
			}
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			body := newWorker(worker)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				bctx, ok := begin(i)
				if !ok {
					return
				}
				errs[i] = run(bctx, body, i)
				end(i, errs[i])
			}
		}(k)
	}
	wg.Wait()
	finishPool()
	return pickError(ctx, errs)
}

// runIsolated runs one body call behind a recover barrier.
func runIsolated(ctx context.Context, body func(context.Context, int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fail.Panic("", r, debug.Stack())
		}
	}()
	return body(ctx, i)
}

// pickError folds the per-index error slice into the deterministic result:
// lowest-index root-cause error first, then parent-context cancellation,
// then lowest-index cancellation fallout (possible only if a body
// manufactured one without a failing peer).
func pickError(ctx context.Context, errs []error) error {
	var fallout error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if isCancellation(err) {
			if fallout == nil {
				fallout = err
			}
			continue
		}
		return err
	}
	if err := fail.Context("", ctx.Err()); err != nil {
		return err
	}
	return fallout
}

// isCancellation reports whether err is (or wraps) a cancellation signal —
// the fallout of someone else's failure, never a root cause of its own.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, fail.ErrCancelled)
}
