package testgen

// The durable-unit runner: the one place that decides how a generation
// unit (a GA search "ga/<path>" or a model-checker verdict "tg/<path>")
// meets the run journal, the distributed ledger's scope, the persistent
// verdict cache and the event bus. A stage states only its record type,
// its cache hooks and its compute; the runner applies them in a fixed
// order:
//
//	journal replay → scope check → cache probe → compute
//	  → journal append → cache store → bus event
//
// The journal wins over the cache (it is consulted first, and a replayed
// record feeds the cache), and every unit this process resolves emits
// exactly one completion event, whatever resolved it.

import (
	"context"

	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/journal"
	"wcet/internal/obs"
	"wcet/internal/vcache"
)

// origin says how a unit was resolved.
type origin int

const (
	computed origin = iota
	replayed        // from the run journal
	cached          // from the persistent verdict cache
	unowned         // a sibling worker's unit: nothing resolved here
)

// record is a journaled unit's record type; its pointer renders the
// unit's completion event.
type record[T any] interface {
	*T
	event(unit, detail string) obs.BusEvent
}

// unit is one durable generation unit, as a stage describes it.
type unit[P any] struct {
	// key is the journal key, and the unit identity the ledger leases.
	key string
	// hit probes the verdict cache; nil when the cache is off.
	hit func() (P, bool)
	// store writes a replayed or computed record to the cache; nil when
	// this unit does not write the cache.
	store func(P)
	// compute produces the record and the completion event's detail. It
	// returns an error only for a run-level failure (cancellation).
	compute func(ctx context.Context) (P, string, error)
}

// runner carries the run-wide durability state shared by every unit.
type runner struct {
	j     *journal.Journal
	scope *journal.Scope
	vc    *vcache.Store // nil: the cache is off
	o     *obs.Observer
}

// newRunner reads the run's journal, ledger scope, verdict cache and
// observer off the context. The persistent cache only sees pure runs: an
// active fault injector makes attempt histories depend on injected
// failures, which would store records that are not functions of their
// keys.
func newRunner(ctx context.Context) *runner {
	r := &runner{j: journal.From(ctx), scope: journal.ScopeFrom(ctx), o: obs.From(ctx)}
	if faults.From(ctx) == nil {
		r.vc = vcache.From(ctx)
	}
	return r
}

// run resolves one unit. An outcome computed under a dead context is
// abandoned — never journaled, cached or returned — because a cancelled
// computation may have been cut short; the resumed run recomputes it.
func run[T any, P record[T]](ctx context.Context, r *runner, ow *obs.Observer, u unit[P]) (P, origin, error) {
	rec := P(new(T))
	if r.j.GetJSON(u.key, rec) {
		r.o.Count("testgen.journal.replayed", 1)
		if u.store != nil {
			u.store(rec)
		}
		ow.Emit(rec.event(u.key, "replayed"))
		return rec, replayed, nil
	}
	if !r.scope.Owns(u.key) {
		return nil, unowned, nil
	}
	if u.hit != nil {
		if rec, ok := u.hit(); ok {
			// Journal the hit too: the run stays resumable, and on resume
			// the journal (checked first) wins.
			_ = r.j.PutJSON(u.key, rec)
			r.o.Count("testgen.vcache.replayed", 1)
			ow.Emit(rec.event(u.key, "cached"))
			return rec, cached, nil
		}
	}
	rec, detail, err := u.compute(ctx)
	if err == nil && ctx.Err() != nil {
		err = fail.Context("testgen", ctx.Err())
	}
	if err != nil {
		return nil, computed, err
	}
	// A full journal or cache disk is an infrastructure problem for its
	// owner; the analysis proceeds (it simply cannot resume or hit here).
	_ = r.j.PutJSON(u.key, rec)
	if u.store != nil {
		u.store(rec)
	}
	ow.Emit(rec.event(u.key, detail))
	return rec, computed, nil
}
