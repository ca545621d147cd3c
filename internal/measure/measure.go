// Package measure is the measurement subsystem: it executes generated test
// data on the cycle-accurate simulator and aggregates, per unit of the
// instrumentation plan, the maximum observed execution time.
//
// A unit's time is the cycle delta between its entry observation point and
// the first observation point outside it — exactly what the paper obtains
// from its start/stop cycle-counter instrumentation on the HCS12 board.
package measure

import (
	"context"
	"fmt"

	"wcet/internal/cc/ast"
	"wcet/internal/cfg"
	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/interp"
	"wcet/internal/obs"
	"wcet/internal/par"
	"wcet/internal/partition"
	"wcet/internal/retry"
	"wcet/internal/sim"
)

// UnitTime aggregates observations for one plan unit.
type UnitTime struct {
	Unit partition.Unit
	// Max is the worst observed execution time in cycles (-1: never seen).
	Max int64
	// Samples counts observations.
	Samples int
	// PerPath records, for whole-segment units, the worst time per internal
	// path key (block id sequence) — coverage bookkeeping.
	PerPath map[string]int64
}

// Result of a measurement campaign.
type Result struct {
	Plan  *partition.Plan
	Times []UnitTime
	// Runs counts simulator executions.
	Runs int
}

// Covered reports whether every unit has at least one observation.
func (r *Result) Covered() bool {
	for _, t := range r.Times {
		if t.Samples == 0 {
			return false
		}
	}
	return true
}

// UnitMax returns the maximum for the i-th plan unit (-1 when unobserved).
func (r *Result) UnitMax(i int) int64 { return r.Times[i].Max }

// Campaign runs every test vector and aggregates unit times.
//
// The optional workers argument fans replays out over a bounded worker
// pool, one simulator clone and one accumulator per worker; the final fold
// (max per unit and path, summed samples) is order-insensitive, so the
// Result is identical for every worker count. Omitted or 1 runs serially;
// 0 uses one worker per CPU.
func Campaign(plan *partition.Plan, vm *sim.VM, data []interp.Env, workers ...int) (*Result, error) {
	w := 1
	if len(workers) > 0 {
		w = par.Workers(workers[0])
	}
	return CampaignCtx(context.Background(), plan, vm, data, w)
}

// CampaignCtx is Campaign under a context: cancellation stops the replays
// cooperatively (fail.ErrCancelled; an expired deadline maps to
// fail.ErrBudgetExceeded), a transient per-vector failure retries under
// the default retry policy, a vector that exhausts its attempts surfaces
// exactly one attributed error — deterministically the lowest-indexed
// failing vector — and a panicking replay worker is isolated into
// fail.ErrWorkerPanic. The pool joins every worker before returning, so a
// failed campaign leaks no goroutines.
//
// Nothing is journaled: one replay costs microseconds, less than the
// journal append that would record it, so a resumed analysis simply
// measures again.
func CampaignCtx(ctx context.Context, plan *partition.Plan, vm *sim.VM, data []interp.Env, workers int) (*Result, error) {
	// The campaign-entry site exists so tests can stall or fail the stage
	// as a whole (index 0), not just individual replays.
	if ferr := faults.Fire(ctx, "measure.campaign", 0); ferr != nil {
		return nil, fail.Attribute(fail.From("measure", ferr), "measure", "")
	}
	o := obs.From(ctx)
	accs := make([]*Result, par.Workers(workers))
	err := replay(ctx, "measure.run", vm, data, len(accs), func(worker int) func(*sim.Trace) {
		acc := newResult(plan)
		accs[worker] = acc
		ow := o.Worker(worker)
		return func(tr *sim.Trace) {
			acc.Runs++
			acc.Observe(tr)
			// The vector set and each run's cycle count are deterministic;
			// histogram buckets fold commutatively across workers.
			ow.Count("measure.runs", 1)
			ow.Hist("measure.cycles", tr.Total)
		}
	})
	if err != nil {
		return nil, err
	}
	res := newResult(plan)
	for _, acc := range accs {
		if acc != nil {
			res.merge(acc)
		}
	}
	return res, nil
}

// replay is the replay loop Campaign and ExhaustiveMax share: every vector
// runs on a worker-private simulator clone, each attempt behind the fault
// site, and its trace goes to the fold the worker's setup returned.
func replay(ctx context.Context, site string, vm *sim.VM, data []interp.Env, workers int,
	fold func(worker int) func(*sim.Trace)) error {

	err := par.ForEachWorkerCtx(ctx, len(data), workers, func(worker int) func(context.Context, int) error {
		wvm := vm.Clone()
		observe := fold(worker)
		return func(ctx context.Context, i int) error {
			var tr *sim.Trace
			_, err := retry.Do(ctx, retry.Policy{}, func(int) error {
				if ferr := faults.Fire(ctx, site, i); ferr != nil {
					return fail.Attribute(fail.From("measure", ferr), "measure", vectorPath(i))
				}
				var rerr error
				tr, rerr = wvm.Run(data[i].Clone())
				if rerr != nil {
					return fail.Attribute(fail.Infra("measure", fmt.Errorf("run failed: %w", rerr)),
						"measure", vectorPath(i))
				}
				return nil
			})
			if err != nil {
				return err
			}
			observe(tr)
			return nil
		}
	})
	if err != nil {
		return fail.Attribute(err, "measure", "")
	}
	return nil
}

// vectorPath renders the ledger attribution of one test vector.
func vectorPath(i int) string { return fmt.Sprintf("vector %d", i) }

func newResult(plan *partition.Plan) *Result {
	res := &Result{Plan: plan}
	res.Times = make([]UnitTime, len(plan.Units))
	for i, u := range plan.Units {
		res.Times[i] = UnitTime{Unit: u, Max: -1, PerPath: map[string]int64{}}
	}
	return res
}

// Merge folds another campaign over the same plan into r — the degraded-
// mode fallback uses it to widen a partial campaign with exhaustive runs.
// Maxima are commutative and associative, so merge order cannot change the
// outcome.
func (r *Result) Merge(o *Result) { r.merge(o) }

// merge folds another campaign over the same plan into r. Maxima and
// per-path maxima are commutative and associative, so merge order does not
// affect the result.
func (r *Result) merge(o *Result) {
	r.Runs += o.Runs
	for i := range r.Times {
		a, b := &r.Times[i], &o.Times[i]
		a.Samples += b.Samples
		if b.Max > a.Max {
			a.Max = b.Max
		}
		for k, v := range b.PerPath {
			if v > a.PerPath[k] {
				a.PerPath[k] = v
			}
		}
	}
}

// Observe folds one simulator trace into the aggregates.
func (r *Result) Observe(tr *sim.Trace) {
	events := tr.Events
	for ui := range r.Times {
		ut := &r.Times[ui]
		switch ut.Unit.Kind {
		case partition.SingleBlock:
			for i, ev := range events {
				if ev.Block != ut.Unit.Block {
					continue
				}
				end := tr.Total
				if i+1 < len(events) {
					end = events[i+1].Cycle
				}
				d := end - ev.Cycle
				ut.observe("", d)
			}
		case partition.WholePS:
			set := ut.Unit.PS.Region.Set
			entry := ut.Unit.PS.Region.Entry
			for i := 0; i < len(events); i++ {
				if events[i].Block != entry {
					continue
				}
				// Follow until the trace leaves the region.
				j := i + 1
				key := blockKey(events[i].Block)
				for j < len(events) && set[events[j].Block] {
					key += "-" + blockKey(events[j].Block)
					j++
				}
				end := tr.Total
				if j < len(events) {
					end = events[j].Cycle
				}
				ut.observe(key, end-events[i].Cycle)
				i = j - 1
			}
		}
	}
}

func (ut *UnitTime) observe(pathKey string, d int64) {
	ut.Samples++
	if d > ut.Max {
		ut.Max = d
	}
	if pathKey != "" {
		if d > ut.PerPath[pathKey] {
			ut.PerPath[pathKey] = d
		}
	}
}

func blockKey(id cfg.NodeID) string { return fmt.Sprintf("%d", id) }

// ExhaustiveMax runs every environment and returns the maximum end-to-end
// time — the ground truth the paper obtains from exhaustive end-to-end
// measurement on small input spaces. The optional workers argument
// parallelises the runs as in Campaign; max-folding makes the result
// independent of the worker count.
func ExhaustiveMax(vm *sim.VM, data []interp.Env, workers ...int) (int64, error) {
	w := 1
	if len(workers) > 0 {
		w = par.Workers(workers[0])
	}
	return ExhaustiveMaxCtx(context.Background(), vm, data, w)
}

// ExhaustiveMaxCtx is ExhaustiveMax under a context, with the same
// cancellation, retry, attribution and panic-isolation contract as
// CampaignCtx.
func ExhaustiveMaxCtx(ctx context.Context, vm *sim.VM, data []interp.Env, workers int) (int64, error) {
	o := obs.From(ctx)
	maxes := make([]int64, par.Workers(workers))
	for i := range maxes {
		maxes[i] = -1
	}
	err := replay(ctx, "measure.exhaustive", vm, data, len(maxes), func(worker int) func(*sim.Trace) {
		ow := o.Worker(worker)
		return func(tr *sim.Trace) {
			if tr.Total > maxes[worker] {
				maxes[worker] = tr.Total
			}
			ow.Count("measure.exhaustive.runs", 1)
			ow.Hist("measure.exhaustive.cycles", tr.Total)
		}
	})
	if err != nil {
		return 0, err
	}
	var max int64 = -1
	for _, m := range maxes {
		if m > max {
			max = m
		}
	}
	o.SetMax("measure.exhaustive.max_cycles", max)
	return max, nil
}

// EnumerateInputs builds the full cross product of the given input domains
// (each variable uses its annotation range or type range), erroring out
// beyond the cap. Base supplies fixed non-input values.
func EnumerateInputs(vars []InputVar, base interp.Env, cap int) ([]interp.Env, error) {
	total := 1
	for _, v := range vars {
		span := v.Hi - v.Lo + 1
		if span <= 0 || total > cap/int(span)+1 {
			total = cap + 1
			break
		}
		total *= int(span)
	}
	if total > cap {
		return nil, fmt.Errorf("measure: input space too large (> %d)", cap)
	}
	envs := []interp.Env{base.Clone()}
	for _, v := range vars {
		var next []interp.Env
		for _, e := range envs {
			for val := v.Lo; val <= v.Hi; val++ {
				ne := e.Clone()
				ne[v.Decl] = val
				next = append(next, ne)
			}
		}
		envs = next
	}
	return envs, nil
}

// InputVar is one enumerable input dimension.
type InputVar struct {
	Decl   *ast.VarDecl
	Lo, Hi int64
}
