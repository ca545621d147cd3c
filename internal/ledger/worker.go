package ledger

import (
	"context"
	"fmt"
	"os"
	"time"

	"wcet/internal/core"
	"wcet/internal/faults"
	"wcet/internal/journal"
	"wcet/internal/obs"
)

// WorkerOptions tune RunWorker beyond the assignment file.
type WorkerOptions struct {
	// AppendHook, when set, observes every journal append ((key, total
	// appended)) before the scope is updated — the chaos suites' lever for
	// killing a worker after N durable records.
	AppendHook func(key string, total int)
	// Obs receives the worker's observability stream (nil disables it).
	Obs *obs.Observer
}

// RunWorker executes one assignment to completion: it rebuilds the
// analysis from the spec, verifies the fingerprint matches the lease,
// opens its private journal, and runs the ordinary pipeline scoped to the
// owned keys. It returns nil exactly when every owned unit has a durable
// record in the worker journal — partial progress is still harvested by
// the coordinator from the journal file, which is why a worker can be
// killed at any instant without losing completed units.
//
// The pipeline's own report is discarded: in a scoped run it is
// intentionally partial (unowned units are skipped), and only the
// canonical journal's replay produces the real one.
func RunWorker(ctx context.Context, assignmentPath string, w WorkerOptions) error {
	a, err := ReadAssignment(assignmentPath)
	if err != nil {
		return err
	}
	spec := &a.Spec
	opt := spec.Options()
	file, fn, g, err := core.Frontend(spec.Source, spec.FuncName)
	if err != nil {
		return fmt.Errorf("ledger: worker frontend: %w", err)
	}
	if fp := core.FingerprintOf(file, fn, g, opt); fp != a.Fingerprint {
		return fmt.Errorf("ledger: fingerprint mismatch: lease %s has %s, worker computes %s (version skew?)",
			a.ID, short(a.Fingerprint), short(fp))
	}

	j, err := journal.Open(a.Journal)
	if err != nil {
		return fmt.Errorf("ledger: worker journal: %w", err)
	}
	defer j.Close()

	// Worker observability: the handed-down observer (GoLauncher shares the
	// coordinator's bus) or — for process workers with telemetry enabled —
	// a self-built one, so the flight recorder and registry exist to
	// snapshot into the sidecar. Either way the handle is labeled with the
	// lease id: progress lines interleaved on a shared stderr stay
	// attributable, and bus events carry the worker.
	ob := w.Obs
	if ob == nil && a.Telemetry != "" {
		c := obs.Config{}
		if a.Verbose {
			c.Progress = os.Stderr
		}
		ob = obs.New(c)
	}
	ob = ob.Named(a.ID)

	// Owned units that already have records (a re-leased shard after a
	// partial death) count as complete up front, so a fully-journaled
	// shard drains immediately and the worker exits without recomputing.
	scope := journal.NewScope(a.Keys)
	for _, k := range a.Keys {
		if j.Has(k) {
			scope.Complete(k)
		}
	}
	j.SetAppendHook(func(key string, total int) {
		if w.AppendHook != nil {
			w.AppendHook(key, total)
		}
		scope.Complete(key)
	})

	// Draining the scope cancels the pipeline: once every owned unit is
	// durable there is nothing left this worker is allowed to compute, so
	// tearing the run down early is pure wall-clock savings — correctness
	// never depends on it (the coordinator merges only owned keys).
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	scope.OnDrained(cancel)

	ctx = journal.WithScope(ctx, scope)
	if len(spec.Faults) > 0 {
		ctx = faults.With(ctx, faults.New(spec.rules()...))
	}
	opt.Journal = j
	opt.Obs = ob

	// Telemetry sidecar: rewrite a snapshot of (progress, registry, flight
	// ring) every interval with temp+rename, plus once on the way out so a
	// clean exit leaves its final state. A SIGKILLed worker leaves its last
	// periodic snapshot — exactly the post-mortem the coordinator harvests.
	if a.Telemetry != "" {
		interval := time.Duration(a.TelemetryMS) * time.Millisecond
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		total := len(a.Keys)
		var seq int64
		writeTelem := func() {
			seq++
			_ = obs.WriteTelemetry(a.Telemetry, &obs.Telemetry{
				ID:       a.ID,
				Seq:      seq,
				WallMS:   ob.Elapsed().Milliseconds(),
				Done:     total - len(scope.Remaining()),
				Total:    total,
				Appended: j.Appended(),
				Metrics:  ob.Metrics().Snapshot(true),
				Flight:   ob.FlightDump(),
			})
		}
		writeTelem()
		stop, stopped := make(chan struct{}), make(chan struct{})
		ticker := time.NewTicker(interval)
		go func() {
			defer close(stopped)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					writeTelem()
				}
			}
		}()
		defer func() {
			// The final snapshot must not race a tick still in flight.
			close(stop)
			<-stopped
			writeTelem()
		}()
	}

	_, runErr := core.AnalyzeGraphCtx(ctx, file, fn, g, opt)
	if scope.Drained() {
		// The lease is fulfilled; a cancellation error from our own
		// drain-teardown is expected and meaningless.
		return nil
	}
	if runErr != nil {
		return fmt.Errorf("ledger: worker %s incomplete (%d unit(s) left): %w",
			a.ID, len(scope.Remaining()), runErr)
	}
	return fmt.Errorf("ledger: worker %s exited cleanly with %d owned unit(s) unjournaled",
		a.ID, len(scope.Remaining()))
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
