package mc

import (
	"context"
	"errors"

	"wcet/internal/bdd"
	"wcet/internal/bv"
	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/tsys"
)

// The forward engine decides a trap query on a model whose location graph
// is acyclic (between the initial location and the trap) in one pass over
// the locations in topological order. Each location carries a reach
// condition — a BDD over the free variables' initial bits saying which
// initial states arrive there — and one symbolic vector per variable
// giving its value on arrival, as a function of those same bits. An edge
// conjoins its guard into its source's condition and evaluates its
// assignments in the source's state; the trap's condition is then exactly
// the set of initial states whose run reaches the trap. There is no
// transition relation, no next-state copy of the variables and no
// fixpoint, which is what makes loop-free path queries cheap.
//
// One state per location is exact only while every initial state arrives
// by a single route: at a join, the incoming conditions must be disjoint
// for the multiplexed state to be every arrival's state. When two
// conditions overlap (a nondeterministic choice that rejoins) the pass
// stops with errJoinOverlap and the query falls back to reachability,
// which keeps every state. That check is what keeps the engine sound.

// errJoinOverlap reports that two routes into one location share an
// initial state, so a single symbolic state cannot represent the arrivals.
var errJoinOverlap = errors.New("mc: overlapping join conditions")

// forward is the built state of a forward query.
type forward struct {
	e *encoding
	// order lists the locations on some path from the initial location to
	// the trap, in topological order; out holds the edges among them by
	// source location.
	order []tsys.Loc
	out   [][]*tsys.Edge
	// init is the initial states' condition (declared ranges) and initEnv
	// the variables' initial vectors: constants for pinned variables, the
	// BDD variables of their bits for free ones.
	init    bdd.Ref
	initEnv []bv.Vec
	// varBit[id][i] is the BDD variable of bit i of free variable id (nil
	// for pinned variables).
	varBit [][]int
}

// topoCone returns the locations that lie on some path from the model's
// initial location to its trap, in topological order, and the edges among
// them grouped by source. Edges leaving the trap are ignored: a run ends
// there. ok is false when that part of the location graph has a cycle.
func topoCone(model *tsys.Model) (order []tsys.Loc, out [][]*tsys.Edge, ok bool) {
	n := model.NLocs
	succ := make([][]tsys.Loc, n)
	pred := make([][]tsys.Loc, n)
	for _, ed := range model.Edges {
		if ed.From == model.Trap {
			continue
		}
		succ[ed.From] = append(succ[ed.From], ed.To)
		pred[ed.To] = append(pred[ed.To], ed.From)
	}
	fromInit := closure(model.Init, succ, n)
	toTrap := closure(model.Trap, pred, n)
	out = make([][]*tsys.Edge, n)
	if !fromInit[model.Trap] {
		// No location path leads to the trap: an empty pass decides it.
		return nil, out, true
	}
	indeg := make([]int, n)
	cone := 0
	for l := 0; l < n; l++ {
		if fromInit[l] && toTrap[l] {
			cone++
		}
	}
	for _, ed := range model.Edges {
		if ed.From != model.Trap && fromInit[ed.From] && toTrap[ed.To] {
			out[ed.From] = append(out[ed.From], ed)
			indeg[ed.To]++
		}
	}
	if indeg[model.Init] > 0 {
		return nil, nil, false
	}
	order = append(order, model.Init)
	for k := 0; k < len(order); k++ {
		for _, ed := range out[order[k]] {
			if indeg[ed.To]--; indeg[ed.To] == 0 {
				order = append(order, ed.To)
			}
		}
	}
	return order, out, len(order) == cone
}

// closure marks every location reachable from start along adj.
func closure(start tsys.Loc, adj [][]tsys.Loc, n int) []bool {
	seen := make([]bool, n)
	seen[start] = true
	stack := []tsys.Loc{start}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range adj[l] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// newForward lays out the free variables' initial bits and obtains the
// manager through acquire. The layout is variable-major, most significant
// bit first, unlike the bit-interleaved reachability encoding: reach
// conditions here are conjunctions of guards that each compare one input
// with a constant, and a conjunction of per-variable ranges stays linear
// with each variable's bits together but multiplies out when every
// variable's bits interleave with every other's (gen-40: a peak of 1.9
// thousand nodes against 336 thousand).
func newForward(model *tsys.Model, order []tsys.Loc, out [][]*tsys.Edge,
	acquire func(nvars int) *bdd.Manager) *forward {

	f := &forward{order: order, out: out, varBit: make([][]int, len(model.Vars))}
	n := 0
	for id, v := range model.Vars {
		if v.Init == tsys.InitConst {
			continue
		}
		f.varBit[id] = make([]int, v.Bits)
		for bit := v.Bits - 1; bit >= 0; bit-- {
			f.varBit[id][bit] = n
			n++
		}
	}
	m := acquire(n)
	f.e = &encoding{m: m, model: model}
	f.initEnv = make([]bv.Vec, len(model.Vars))
	f.init = bdd.True
	for id, v := range model.Vars {
		if v.Init == tsys.InitConst {
			f.initEnv[id] = bv.Const(m, tsys.TruncateBits(v.InitVal, v.Bits, v.Signed), v.Bits, v.Signed)
			continue
		}
		f.initEnv[id] = bv.FromVars(m, f.varBit[id], v.Signed)
		if v.HasRange {
			f.init = m.And(f.init, inRange(m, f.initEnv[id], v))
		}
	}
	return f
}

// run executes the pass and returns the trap's reach condition. Every
// location it visits is one step: the context, the mc.step fault site and
// the step count advance per location.
func (f *forward) run(ctx context.Context, trap tsys.Loc, steps *int) (bdd.Ref, error) {
	if len(f.order) == 0 {
		return bdd.False, nil
	}
	m := f.e.m
	vars := f.e.model.Vars
	reach := make([]bdd.Ref, len(f.out))
	for i := range reach {
		reach[i] = bdd.False
	}
	env := make([][]bv.Vec, len(f.out))
	reach[f.order[0]], env[f.order[0]] = f.init, f.initEnv
	for _, l := range f.order {
		if cerr := ctx.Err(); cerr != nil {
			return bdd.False, fail.Context("mc", cerr)
		}
		if ferr := faults.Fire(ctx, "mc.step", *steps); ferr != nil {
			return bdd.False, fail.From("mc", ferr)
		}
		*steps++
		if l == trap || reach[l] == bdd.False {
			continue
		}
		f.e.env = env[l]
		for _, ed := range f.out[l] {
			c := reach[l]
			if ed.Guard != nil {
				g, err := f.e.evalSym(ed.Guard)
				if err != nil {
					return bdd.False, err
				}
				c = m.And(c, bv.NonZero(m, g))
			}
			if c == bdd.False {
				continue
			}
			next := env[l]
			if len(ed.Assigns) > 0 {
				// Parallel assignment: every right-hand side reads the
				// source state (f.e.env), never a sibling's new value.
				next = append([]bv.Vec(nil), next...)
				for _, a := range ed.Assigns {
					rhs, err := f.e.evalSym(a.RHS)
					if err != nil {
						return bdd.False, err
					}
					v := vars[a.Var]
					next[a.Var] = bv.Retype(bv.Extend(m, rhs, v.Bits), v.Signed)
				}
			}
			t := ed.To
			if reach[t] == bdd.False {
				reach[t], env[t] = c, next
				continue
			}
			if m.And(reach[t], c) != bdd.False {
				return bdd.False, errJoinOverlap
			}
			merged := append([]bv.Vec(nil), env[t]...)
			for id := range merged {
				if !sameBits(next[id], merged[id]) {
					merged[id] = bv.Mux(m, c, next[id], merged[id])
				}
			}
			reach[t], env[t] = m.Or(reach[t], c), merged
		}
		env[l] = nil
	}
	f.e.env = nil
	return reach[trap], nil
}

// witness reads the input variables' initial values off one satisfying
// assignment of the trap condition (unconstrained bits read as 0).
func (f *forward) witness(trapReach bdd.Ref) map[tsys.VarID]int64 {
	assign, _ := f.e.m.SatOne(trapReach)
	out := map[tsys.VarID]int64{}
	for id, v := range f.e.model.Vars {
		// Inputs sliced to zero width carry no bits and no influence; the
		// caller fills them from its base environment (see extractWitness).
		if !v.Input || v.Bits == 0 || f.varBit[id] == nil {
			continue
		}
		var val int64
		for i, b := range f.varBit[id] {
			if assign[b] == 1 {
				val |= 1 << uint(i)
			}
		}
		out[tsys.VarID(id)] = tsys.TruncateBits(val, v.Bits, v.Signed)
	}
	return out
}

// sameBits reports whether two vectors are built from the same BDDs.
func sameBits(a, b bv.Vec) bool {
	if len(a.Bits) != len(b.Bits) {
		return false
	}
	for i := range a.Bits {
		if a.Bits[i] != b.Bits[i] {
			return false
		}
	}
	return true
}
