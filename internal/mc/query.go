package mc

import (
	"context"
	"fmt"
	"time"

	"wcet/internal/bdd"
	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/obs"
	"wcet/internal/opt"
	"wcet/internal/tsys"
)

// managers recycles BDD managers across symbolic queries. A Reset manager
// keeps its backing arrays but is observationally identical to a fresh one
// (only the volatile MemoryBytes can tell them apart), so pooling cuts the
// allocation churn of the hundreds of per-path queries in test generation
// without touching results or deterministic statistics. sync.Pool handles
// the per-worker affinity.
var managers bdd.Pool

// reorderMin is the table size below which dynamic reordering never
// triggers: sifting a small graph costs more than it can save.
var reorderMin = 20_000

// SetReorderMin adjusts the dynamic-reordering trigger's minimum table
// size and returns the previous value. It exists for tests and benchmarks
// that want sifting exercised on small models (or suppressed entirely);
// call it only while no symbolic queries are in flight.
func SetReorderMin(n int) int {
	old := reorderMin
	reorderMin = n
	return old
}

// reorderGrowth is the growth factor over the last post-reorder baseline
// that arms the next reorder round.
const reorderGrowth = 4

// reorderMax is the table size above which sifting no longer triggers: a
// round's cost grows with the live graph while its typical gain does not,
// so past this point a sift can no longer pay for itself within the query.
// Reordering is an early-containment tool — by the time a table is this
// large, the order is not the fixable problem.
const reorderMax = 100_000

// levers switches off the symbolic engine's speed levers — the per-trap
// slice, dynamic variable reordering and manager pooling — so the
// differential suites and the lever benchmark can compare the engine with
// and without each one. No lever changes a verdict. The public
// constructors always pass the zero value: every lever on.
type levers struct {
	noSlice   bool // check the model exactly as given
	noReorder bool // keep the build-time interleaved order for the whole query
	noPool    bool // allocate a fresh BDD manager instead of leasing a pooled one
}

// SymbolicQuery is a reusable symbolic query against one model, decided by
// reachability (NewSymbolicQuery) or by the engine the model's shape
// selects (NewQuery). It exists so retry loops stop paying the per-attempt
// setup: the model pointer and options persist across CheckCtx calls, and
// the expensive state — manager lease, bit-blasted transition relations or
// the forward pass's order — is built lazily on first use, so an attempt
// that fails before reaching the engine (the common transient-fault shape)
// costs the next attempt nothing.
//
// Determinism contract: a CheckCtx that returns an error releases every
// piece of built state. A retry therefore rebuilds from scratch and
// reports exactly the statistics a first-try success would have reported —
// crucial because canonical reports include per-path node counts, and a
// wall-clock expiry (which the retry policy retries) aborts at a
// nondeterministic point.
type SymbolicQuery struct {
	model *tsys.Model
	opt   Options
	lv    levers

	e       *encoding
	rels    []bdd.Ref
	trap    bdd.Ref
	init    bdd.Ref
	health0 bdd.Health

	// sliceBits/sliceEdges record what the per-trap slice removed (zero
	// with the slice lever off) — deterministic functions of the model,
	// reported once per successful check.
	sliceBits  int64
	sliceEdges int64

	// reorderBase is the table size the growth trigger measures against:
	// the size right after the build or the last reorder round (whether or
	// not that round found a better order — otherwise a graph sifting
	// cannot shrink would be re-sifted every iteration). reorderDone stops
	// further rounds once sifting has plateaued for this query: a round
	// that gains little proves the order is already as good as sifting
	// gets, and paying for it again every growth step would cost more than
	// the residual gain.
	reorderBase int
	reorderDone bool
	reorders    int
	nodesFreed  int64

	// tryForward selects the forward engine for a model whose location
	// graph is acyclic (NewQuery); fw is that engine's built state.
	// fellBack records that the forward pass met overlapping join
	// conditions, after which the query decides by reachability. Both
	// outcomes are functions of the model, so they survive release.
	tryForward bool
	fw         *forward
	fellBack   bool

	closed bool
}

// NewSymbolicQuery prepares a reachability query for the model. Nothing is
// built until the first CheckCtx call; Close releases whatever was built.
func NewSymbolicQuery(model *tsys.Model, opt Options) *SymbolicQuery {
	return newQuery(model, opt, levers{}, false)
}

// NewQuery prepares a query that picks its engine from the model: the
// forward engine (forward.go) when the (sliced) location graph between the
// initial location and the trap is acyclic, reachability otherwise or when
// the forward pass meets overlapping join conditions. Verdicts are the
// same either way; statistics are those of the engine that decided.
func NewQuery(model *tsys.Model, opt Options) *SymbolicQuery {
	return newQuery(model, opt, levers{}, true)
}

// newQuery is the one constructor: forward selects NewQuery's engine
// dispatch, and only tests pass levers other than the zero value.
func newQuery(model *tsys.Model, opt Options, lv levers, forward bool) *SymbolicQuery {
	return &SymbolicQuery{model: model, opt: opt.withDefaults(), lv: lv, tryForward: forward}
}

// CheckCtx is a one-shot NewQuery check.
func CheckCtx(ctx context.Context, model *tsys.Model, opt Options) (*Result, error) {
	q := NewQuery(model, opt)
	defer q.Close()
	return q.CheckCtx(ctx)
}

// Close returns the query's manager to the pool (if one was built) and
// marks the query unusable.
func (q *SymbolicQuery) Close() {
	q.release()
	q.closed = true
}

// release drops all built state. After release the next CheckCtx rebuilds
// from scratch, exactly as a fresh query would.
func (q *SymbolicQuery) release() {
	m := q.manager()
	if m == nil {
		return
	}
	q.e, q.fw = nil, nil
	q.rels = nil
	q.trap, q.init = bdd.False, bdd.False
	q.reorderBase, q.reorderDone, q.reorders, q.nodesFreed = 0, false, 0, 0
	q.sliceBits, q.sliceEdges = 0, 0
	if !q.lv.noPool {
		managers.Put(m)
	}
}

// manager returns the built engine's manager, or nil before build.
func (q *SymbolicQuery) manager() *bdd.Manager {
	switch {
	case q.fw != nil:
		return q.fw.e.m
	case q.e != nil:
		return q.e.m
	}
	return nil
}

// acquire leases a manager for n variables from the pool, or allocates a
// fresh one with the pooling lever off.
func (q *SymbolicQuery) acquire(n int) *bdd.Manager {
	if q.lv.noPool {
		return bdd.New(n)
	}
	return managers.Get(n)
}

// build slices the model to the trap query (unless disabled) and builds
// the engine that decides it. For the forward engine that is the
// topological order and the initial state. For reachability it leases a
// manager and bit-blasts the transition relations, trap and initial-state
// predicates; reordering may trigger between relation builds, where the
// relations built so far are the entire live set.
func (q *SymbolicQuery) build() error {
	model := q.model
	if !q.lv.noSlice {
		// The slice mutates, so it runs on a private clone; the caller's
		// model stays the full model.
		model = model.Clone()
		ps := opt.SliceTrap(model)
		q.sliceBits = int64(ps.BitsBefore - ps.BitsAfter)
		q.sliceEdges = int64(ps.EdgesBefore - ps.EdgesAfter)
	}
	if q.tryForward {
		if order, out, ok := topoCone(model); ok {
			q.fw = newForward(model, order, out, func(n int) *bdd.Manager {
				m := q.acquire(n)
				q.health0 = m.Health()
				m.SetNodeLimit(q.opt.MaxNodes)
				return m
			})
			return nil
		}
		q.tryForward = false
	}
	e := newEncoding(model, q.acquire)
	m := e.m
	q.health0 = m.Health()
	m.SetNodeLimit(q.opt.MaxNodes)
	q.e = e
	q.reorderBase = m.NodeCount()
	q.rels = q.rels[:0]
	for _, ed := range model.Edges {
		r, err := e.edgeRelation(ed)
		if err != nil {
			return err
		}
		if r != bdd.False {
			q.rels = append(q.rels, r)
		}
		q.maybeReorder(func() []*bdd.Ref { return q.relRoots(nil) })
	}
	q.trap = e.locEquals(model.Trap, false)
	q.init = e.initSet()
	return nil
}

// relRoots collects pointers to every live handle the query holds, plus
// the extras, for a reorder's root set.
func (q *SymbolicQuery) relRoots(extra []*bdd.Ref) []*bdd.Ref {
	roots := make([]*bdd.Ref, 0, len(q.rels)+2+len(extra))
	for i := range q.rels {
		roots = append(roots, &q.rels[i])
	}
	if q.trap != bdd.False {
		roots = append(roots, &q.trap)
	}
	if q.init != bdd.False {
		roots = append(roots, &q.init)
	}
	return append(roots, extra...)
}

// maybeReorder runs a sifting round when the table has outgrown the last
// baseline. The trigger is a pure function of deterministic node counts,
// so reorder points — and therefore peak-node statistics — are identical
// across worker counts and runs. A round that shrinks the graph by less
// than a quarter (or not at all) marks the query done: sifting has
// plateaued, and repeating it at every growth step would cost more than
// the residual gain.
func (q *SymbolicQuery) maybeReorder(roots func() []*bdd.Ref) {
	if q.lv.noReorder || q.reorderDone {
		return
	}
	m := q.e.m
	n := m.NodeCount()
	if n < reorderMin || n > reorderMax || n < reorderGrowth*q.reorderBase {
		return
	}
	before := n
	if m.Reorder(roots()) {
		q.reorders++
		freed := before - m.NodeCount()
		q.nodesFreed += int64(freed)
		if freed*4 < before {
			q.reorderDone = true
		}
	} else {
		q.reorderDone = true
	}
	q.reorderBase = m.NodeCount()
}

// CheckCtx runs the query with cooperative cancellation and budget
// enforcement. The engine checks the context between steps (breadth-first
// iterations, or locations of the forward pass), bounds the BDD table at
// opt.MaxNodes and reachability's iteration count at opt.MaxSteps, and
// bounds its own wall clock at opt.Timeout. Every
// bound violation returns a structured fail.ErrBudgetExceeded (a truncated
// search must never masquerade as a proof of infeasibility); cancellation
// returns fail.ErrCancelled.
func (q *SymbolicQuery) CheckCtx(ctx context.Context) (res *Result, err error) {
	if q.closed {
		return nil, fail.Infra("mc", fmt.Errorf("CheckCtx on a closed query"))
	}
	if q.opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.opt.Timeout)
		defer cancel()
	}
	start := time.Now()
	o := obs.From(ctx)
	o.Count("mc.calls", 1)
	msp := o.SpanV("mc", "mc.symbolic")
	// A failed call ends its span too, tagged with the error kind: budget
	// exhaustion and timeouts are the costliest calls a trace can show.
	// Registered first, this runs after the recover below has turned a
	// node-budget panic into err.
	defer func() {
		if err != nil {
			msp.End("error", fail.KindLabel(err))
		}
	}()
	if q.model.Trap == tsys.NoLoc {
		return nil, fail.Infra("mc", fmt.Errorf("model has no trap location"))
	}
	if ferr := faults.Fire(ctx, "mc.check", 0); ferr != nil {
		return nil, fail.From("mc", ferr)
	}
	// The BDD kernel reports an exhausted node budget as a typed panic (its
	// recursive operations have no error returns); translate it here. On
	// any failure the built state is released: a retry must rebuild from
	// scratch so its statistics match a first-try success (see the type
	// comment), and a limit-struck manager is mid-operation anyway (the
	// pool's Reset restores its invariants).
	defer func() {
		if r := recover(); r != nil {
			le, ok := r.(*bdd.LimitError)
			if !ok {
				panic(r)
			}
			o.Count("mc.budget_exhausted", 1)
			res, err = nil, &fail.Error{Kind: fail.ErrBudgetExceeded, Stage: "mc",
				Msg: "BDD node budget exhausted", Cause: le}
		}
		if err != nil {
			q.release()
		}
	}()
	if q.e == nil && q.fw == nil {
		if berr := q.build(); berr != nil {
			return nil, berr
		}
	}
	if q.fw != nil {
		res, err = q.checkForward(ctx)
		if err == errJoinOverlap {
			// One state per location cannot carry arrivals that share an
			// initial state: decide by reachability on a fresh manager, so
			// the statistics are those a reachability query reports.
			q.release()
			q.tryForward, q.fellBack = false, true
			if berr := q.build(); berr != nil {
				return nil, berr
			}
			res, err = nil, nil
		}
		if err != nil {
			return nil, err
		}
	}
	if res == nil {
		if res, err = q.checkReach(ctx, o); err != nil {
			return nil, err
		}
	}

	res.Stats.Duration = time.Since(start)
	// Steps, peak nodes, reorder rounds and state bits are pure functions
	// of model + options (the manager is fresh or reset-to-fresh, and
	// reorder triggers fire on deterministic node counts), so they feed
	// deterministic series; durations and capacity-dependent kernel-health
	// counters are volatile.
	o.Count("mc.steps", int64(res.Stats.Steps))
	o.Count("mc.slice.bits_dropped", q.sliceBits)
	o.Count("mc.slice.edges_dropped", q.sliceEdges)
	o.Count("mc.reorders", int64(q.reorders))
	o.Count("mc.reorder.nodes_freed", q.nodesFreed)
	engine := "reach"
	if q.fw != nil {
		engine = "forward"
		o.Count("mc.forward.decided", 1)
	}
	if q.fellBack {
		o.Count("mc.forward.fallbacks", 1)
	}
	o.SetMax("mc.peak_nodes", int64(res.Stats.PeakNodes))
	o.Hist("mc.state_bits", int64(res.Stats.StateBits))
	o.HistV("mc.duration_ns", res.Stats.Duration.Nanoseconds())
	m := q.manager()
	h := m.Health().Sub(q.health0)
	o.CountV("bdd.unique.rehashes", h.UniqueRehashes)
	o.CountV("bdd.ite.lookups", h.ITELookups)
	o.CountV("bdd.ite.hits", h.ITEHits)
	o.CountV("bdd.quant.lookups", h.QuantLookups)
	o.CountV("bdd.quant.hits", h.QuantHits)
	o.CountV("bdd.perm.lookups", h.PermLookups)
	o.CountV("bdd.perm.hits", h.PermHits)
	o.SetMaxV("bdd.peak_memory_bytes", m.MemoryBytes())
	msp.End("engine", engine, "steps", res.Stats.Steps, "reachable", res.Reachable,
		"reorders", q.reorders)
	return res, nil
}

// checkForward runs the forward pass (see forward.go). It returns
// errJoinOverlap when the pass cannot decide the model.
func (q *SymbolicQuery) checkForward(ctx context.Context) (*Result, error) {
	f := q.fw
	m := f.e.m
	res := &Result{}
	trapReach, err := f.run(ctx, f.e.model.Trap, &res.Stats.Steps)
	if err != nil {
		return nil, err
	}
	res.Stats.PeakNodes = m.PeakNodes()
	res.Stats.MemoryBytes = m.Footprint()
	res.Stats.StateBits = f.e.model.StateBits()
	// The manager's variables are exactly the free initial bits, so the
	// count is the number of initial states whose run reaches the trap.
	res.Stats.States = m.SatCount(trapReach)
	if trapReach != bdd.False {
		res.Reachable = true
		res.Witness = f.witness(trapReach)
	}
	return res, nil
}

// checkReach runs breadth-first image iteration from the initial states
// until the trap is hit or the reachable set is complete.
func (q *SymbolicQuery) checkReach(ctx context.Context, o *obs.Observer) (*Result, error) {
	e, m := q.e, q.e.m
	res := &Result{}
	reached := q.init
	frontier := q.init
	var rings []bdd.Ref
	rings = append(rings, frontier)
	hit := m.And(frontier, q.trap) != bdd.False

	bfsRoots := func() []*bdd.Ref {
		extra := []*bdd.Ref{&reached, &frontier}
		for i := range rings {
			extra = append(extra, &rings[i])
		}
		return q.relRoots(extra)
	}
	for !hit && frontier != bdd.False && res.Stats.Steps < q.opt.MaxSteps {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fail.Context("mc", cerr)
		}
		if ferr := faults.Fire(ctx, "mc.step", res.Stats.Steps); ferr != nil {
			return nil, fail.From("mc", ferr)
		}
		res.Stats.Steps++
		next := bdd.False
		for _, rel := range q.rels {
			img := m.AndExists(frontier, rel, e.curCube)
			next = m.Or(next, img)
		}
		nextCur := m.Rename(next, e.n2c)
		frontier = m.And(nextCur, m.Not(reached))
		reached = m.Or(reached, frontier)
		rings = append(rings, frontier)
		if m.And(frontier, q.trap) != bdd.False {
			hit = true
		} else {
			q.maybeReorder(bfsRoots)
		}
	}
	if !hit && frontier != bdd.False {
		// The step budget ran out with states still unexplored: no verdict.
		o.Count("mc.budget_exhausted", 1)
		return nil, fail.Budget("mc", "step budget exhausted after %d steps", res.Stats.Steps)
	}

	res.Stats.PeakNodes = m.PeakNodes()
	res.Stats.MemoryBytes = m.Footprint()
	res.Stats.Reorders = q.reorders
	res.Stats.StateBits = e.nbits
	// SatCount ranges over 2n BDD variables while `reached` constrains only
	// the n current-state bits: divide out the free next-state bits.
	res.Stats.States = m.SatCount(reached) / pow2f(e.nbits)

	if hit {
		res.Reachable = true
		w, werr := e.extractWitness(m, q.rels, rings, q.trap)
		if werr != nil {
			return nil, werr
		}
		res.Witness = w
	}
	return res, nil
}
