package mc

import (
	"context"
	"fmt"

	"wcet/internal/bdd"
	"wcet/internal/bv"
	"wcet/internal/cc/token"
	"wcet/internal/tsys"
)

// maxComputeBits caps intermediate bit-blasted widths. Operand widths grow
// by one per addition and double per multiplication; the cap keeps wide
// chains bounded while staying exact for the 16-bit target's expressions.
const maxComputeBits = 34

// encoding lays out the model's state bits in the BDD manager: state bit s
// is BDD variable 2s (current) and 2s+1 (next) — the interleaved order that
// keeps transition relations small.
type encoding struct {
	m       *bdd.Manager
	model   *tsys.Model
	locBase int // state-bit base of the location register
	locBits int
	// varBit[id][i] is the state-bit index of bit i of variable id. Bits of
	// different variables are interleaved (bit 0 of every variable first,
	// then bit 1, …) so that cross-variable relations like x == y + 1 stay
	// linear-sized in the BDD order.
	varBit [][]int
	nbits  int // total state bits

	curCube  int // cube of all current-state BDD vars
	nextCube int // cube of all next-state BDD vars
	n2c      int // permutation next→current
	c2n      int // permutation current→next

	// env, when set, is the state expressions read variables from: the
	// forward engine points it at one location's symbolic state. Unset,
	// variables read their current-state bits.
	env []bv.Vec
}

// newEncoding lays out the model and obtains its manager through acquire,
// so the caller decides between a fresh bdd.New and a pooled lease.
func newEncoding(model *tsys.Model, acquire func(nvars int) *bdd.Manager) *encoding {
	e := &encoding{model: model}
	e.locBits = model.LocBits()
	e.locBase = 0
	n := e.locBits
	e.varBit = make([][]int, len(model.Vars))
	maxBits := 0
	for i, v := range model.Vars {
		e.varBit[i] = make([]int, v.Bits)
		if v.Bits > maxBits {
			maxBits = v.Bits
		}
	}
	for bit := 0; bit < maxBits; bit++ {
		for i, v := range model.Vars {
			if bit < v.Bits {
				e.varBit[i][bit] = n
				n++
			}
		}
	}
	e.nbits = n
	e.m = acquire(2 * n)

	cur := make([]int, n)
	next := make([]int, n)
	n2c := map[int]int{}
	c2n := map[int]int{}
	for s := 0; s < n; s++ {
		cur[s] = 2 * s
		next[s] = 2*s + 1
		n2c[2*s+1] = 2 * s
		c2n[2*s] = 2*s + 1
	}
	e.curCube = e.m.Cube(cur)
	e.nextCube = e.m.Cube(next)
	e.n2c = e.m.Permutation(n2c)
	e.c2n = e.m.Permutation(c2n)
	return e
}

// curBit / nextBit return the BDD variable of a state bit.
func (e *encoding) curBit(s int) int  { return 2 * s }
func (e *encoding) nextBit(s int) int { return 2*s + 1 }

// varVec returns the symbolic vector of a variable: its entry in env when
// one is set, else its current-state bits.
func (e *encoding) varVec(id tsys.VarID) bv.Vec {
	if e.env != nil {
		return e.env[id]
	}
	v := e.model.Vars[id]
	vars := make([]int, v.Bits)
	for i := 0; i < v.Bits; i++ {
		vars[i] = e.curBit(e.varBit[id][i])
	}
	return bv.FromVars(e.m, vars, v.Signed)
}

// locEquals builds pc == l over current (next=false) or next state bits.
func (e *encoding) locEquals(l tsys.Loc, next bool) bdd.Ref {
	r := bdd.True
	for i := 0; i < e.locBits; i++ {
		bit := e.curBit(e.locBase + i)
		if next {
			bit = e.nextBit(e.locBase + i)
		}
		want := (int(l)>>uint(i))&1 == 1
		r = e.m.And(r, e.m.Lit(bit, want))
	}
	return r
}

// evalSym bit-blasts an expression over the current state.
func (e *encoding) evalSym(x tsys.Expr) (bv.Vec, error) {
	m := e.m
	switch t := x.(type) {
	case *tsys.Const:
		bits := bitsFor(t.Val)
		return bv.Const(m, t.Val, bits, t.Val < 0), nil
	case *tsys.Ref:
		return e.varVec(t.Var), nil
	case *tsys.Un:
		sub, err := e.evalSym(t.X)
		if err != nil {
			return bv.Vec{}, err
		}
		switch t.Op {
		case token.MINUS:
			return bv.Neg(m, bv.Extend(m, bv.Retype(sub, true), cap1(sub.Width()+1))), nil
		case token.PLUS:
			return sub, nil
		case token.TILDE:
			// ~x: the operand promotes to a signed 16-bit int on this
			// target, so complement at (at least) int width and keep the
			// result signed — ~0 must be -1.
			w := sub.Width()
			if w < 16 {
				w = 16
			}
			out := bv.NotBits(m, bv.Extend(m, sub, w))
			out.Signed = true
			return out, nil
		case token.BANG:
			return boolVec(m, m.Not(bv.NonZero(m, sub))), nil
		}
		return bv.Vec{}, fmt.Errorf("mc: unary %s unsupported", t.Op)
	case *tsys.Bin:
		return e.evalBin(t)
	case *tsys.CondE:
		c, err := e.evalSym(t.C)
		if err != nil {
			return bv.Vec{}, err
		}
		tv, err := e.evalSym(t.T)
		if err != nil {
			return bv.Vec{}, err
		}
		fv, err := e.evalSym(t.F)
		if err != nil {
			return bv.Vec{}, err
		}
		return bv.Mux(m, bv.NonZero(m, c), tv, fv), nil
	case *tsys.CastE:
		sub, err := e.evalSym(t.X)
		if err != nil {
			return bv.Vec{}, err
		}
		// Truncate to the cast width with the cast signedness.
		out := bv.Extend(m, sub, t.Bits)
		out.Signed = t.Signed
		return out, nil
	}
	return bv.Vec{}, fmt.Errorf("mc: expression %T unsupported", x)
}

func (e *encoding) evalBin(t *tsys.Bin) (bv.Vec, error) {
	m := e.m
	// Logical operators work on truth values.
	switch t.Op {
	case token.LAND, token.LOR:
		a, err := e.evalSym(t.X)
		if err != nil {
			return bv.Vec{}, err
		}
		b, err := e.evalSym(t.Y)
		if err != nil {
			return bv.Vec{}, err
		}
		pa, pb := bv.NonZero(m, a), bv.NonZero(m, b)
		if t.Op == token.LAND {
			return boolVec(m, m.And(pa, pb)), nil
		}
		return boolVec(m, m.Or(pa, pb)), nil
	}
	a, err := e.evalSym(t.X)
	if err != nil {
		return bv.Vec{}, err
	}
	b, err := e.evalSym(t.Y)
	if err != nil {
		return bv.Vec{}, err
	}
	switch t.Op {
	case token.PLUS:
		w := cap1(max2(a.Width(), b.Width()) + 1)
		return bv.Add(m, bv.Extend(m, a, w), bv.Extend(m, b, w)), nil
	case token.MINUS:
		w := cap1(max2(a.Width(), b.Width()) + 1)
		out := bv.Sub(m, bv.Extend(m, a, w), bv.Extend(m, b, w))
		out.Signed = true
		return out, nil
	case token.STAR:
		w := cap1(a.Width() + b.Width())
		return bv.Mul(m, bv.Extend(m, a, w), bv.Extend(m, b, w)), nil
	case token.SLASH, token.PERCENT:
		return e.divMod(t.Op, a, b)
	case token.SHL:
		k, ok := constShift(t.Y)
		if !ok {
			return bv.Vec{}, fmt.Errorf("mc: symbolic shift amounts unsupported")
		}
		w := cap1(a.Width() + k)
		return bv.ShlConst(m, bv.Extend(m, a, w), k), nil
	case token.SHR:
		k, ok := constShift(t.Y)
		if !ok {
			return bv.Vec{}, fmt.Errorf("mc: symbolic shift amounts unsupported")
		}
		return bv.ShrConst(m, a, k), nil
	case token.AMP:
		return bv.Bitwise(m, m.And, a, b), nil
	case token.PIPE:
		return bv.Bitwise(m, m.Or, a, b), nil
	case token.CARET:
		return bv.Bitwise(m, m.Xor, a, b), nil
	case token.EQ:
		return boolVec(m, bv.Eq(m, a, b)), nil
	case token.NE:
		return boolVec(m, m.Not(bv.Eq(m, a, b))), nil
	case token.LT:
		return boolVec(m, bv.Lt(m, a, b)), nil
	case token.GT:
		return boolVec(m, bv.Lt(m, b, a)), nil
	case token.LE:
		return boolVec(m, bv.Le(m, a, b)), nil
	case token.GE:
		return boolVec(m, bv.Le(m, b, a)), nil
	}
	return bv.Vec{}, fmt.Errorf("mc: operator %s unsupported", t.Op)
}

// divMod supports division/modulo by positive constant powers of two with C
// round-toward-zero semantics; anything else is outside the model subset.
func (e *encoding) divMod(op token.Kind, a, b bv.Vec) (bv.Vec, error) {
	m := e.m
	k, val, ok := constPow2(b)
	if !ok {
		return bv.Vec{}, fmt.Errorf("mc: division only by constant powers of two in the model")
	}
	// C rounds toward zero: (a + (a<0 ? 2^k-1 : 0)) >> k.
	w := cap1(a.Width() + 1)
	aw := bv.Extend(m, bv.Retype(a, true), w)
	bias := bv.Mux(m, aw.Bits[w-1], bv.Const(m, val-1, w, true), bv.Const(m, 0, w, true))
	quot := bv.ShrConst(m, bv.Add(m, aw, bias), k)
	quot = bv.Extend(m, quot, w)
	if op == token.SLASH {
		return quot, nil
	}
	// a % b = a - quot*b.
	prod := bv.ShlConst(m, quot, k)
	return bv.Sub(m, aw, prod), nil
}

// constPow2 recognises constant power-of-two vectors.
func constPow2(v bv.Vec) (k int, val int64, ok bool) {
	val = 0
	for i, b := range v.Bits {
		switch b {
		case bdd.True:
			if val != 0 {
				return 0, 0, false
			}
			val = 1 << uint(i)
			k = i
		case bdd.False:
		default:
			return 0, 0, false
		}
	}
	if val == 0 {
		return 0, 0, false
	}
	return k, val, true
}

func constShift(x tsys.Expr) (int, bool) {
	c, ok := x.(*tsys.Const)
	if !ok || c.Val < 0 || c.Val > 32 {
		return 0, false
	}
	return int(c.Val), true
}

func boolVec(m *bdd.Manager, p bdd.Ref) bv.Vec {
	return bv.Vec{Bits: []bdd.Ref{p}}
}

func bitsFor(v int64) int {
	if v < 0 {
		n := 1
		for x := v; x != -1; x >>= 1 {
			n++
		}
		return cap1(n)
	}
	n := 1
	for x := v; x > 0; x >>= 1 {
		n++
	}
	return cap1(n)
}

func cap1(w int) int {
	if w > maxComputeBits {
		return maxComputeBits
	}
	if w < 1 {
		return 1
	}
	return w
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Relation construction and reachability

// edgeRelation builds the BDD of one transition.
func (e *encoding) edgeRelation(ed *tsys.Edge) (bdd.Ref, error) {
	m := e.m
	r := e.locEquals(ed.From, false)
	r = m.And(r, e.locEquals(ed.To, true))
	if ed.Guard != nil {
		gv, err := e.evalSym(ed.Guard)
		if err != nil {
			return bdd.False, err
		}
		r = m.And(r, bv.NonZero(m, gv))
	}
	assigned := map[tsys.VarID]bv.Vec{}
	for _, a := range ed.Assigns {
		rhs, err := e.evalSym(a.RHS)
		if err != nil {
			return bdd.False, err
		}
		assigned[a.Var] = rhs
	}
	for id, v := range e.model.Vars {
		if rhs, ok := assigned[tsys.VarID(id)]; ok {
			// Store truncated to the variable's width.
			stored := bv.Extend(e.m, rhs, v.Bits)
			for i := 0; i < v.Bits; i++ {
				nb := m.Var(e.nextBit(e.varBit[id][i]))
				r = m.And(r, m.Iff(nb, stored.Bits[i]))
				if r == bdd.False {
					return r, nil
				}
			}
		} else {
			for i := 0; i < v.Bits; i++ {
				s := e.varBit[id][i]
				r = m.And(r, m.Iff(m.Var(e.nextBit(s)), m.Var(e.curBit(s))))
			}
		}
	}
	return r, nil
}

// initSet builds the initial-state predicate.
func (e *encoding) initSet() bdd.Ref {
	m := e.m
	r := e.locEquals(e.model.Init, false)
	for id, v := range e.model.Vars {
		switch {
		case v.Init == tsys.InitConst:
			val := tsys.TruncateBits(v.InitVal, v.Bits, v.Signed)
			for i := 0; i < v.Bits; i++ {
				r = m.And(r, m.Lit(e.curBit(e.varBit[id][i]), val&(1<<uint(i)) != 0))
			}
		case v.HasRange:
			// Constrain free values to the declared range.
			r = m.And(r, inRange(m, e.varVec(tsys.VarID(id)), v))
		}
	}
	return r
}

// inRange builds the predicate lo <= vec <= hi of a variable's declared
// range.
func inRange(m *bdd.Manager, vec bv.Vec, v *tsys.Var) bdd.Ref {
	loOK := bv.Le(m, bv.Const(m, v.Lo, bitsFor(v.Lo), v.Lo < 0), vec)
	hiOK := bv.Le(m, vec, bv.Const(m, v.Hi, bitsFor(v.Hi), v.Hi < 0))
	return m.And(loOK, hiOK)
}

// CheckSymbolic runs BDD reachability toward the model's trap location.
func CheckSymbolic(model *tsys.Model, opt Options) (*Result, error) {
	return CheckSymbolicCtx(context.Background(), model, opt)
}

// CheckSymbolicCtx is CheckSymbolic with cooperative cancellation and
// budget enforcement: a one-shot query. Callers that retry the same model
// should hold a SymbolicQuery instead, which keeps the lowered encoding
// across attempts.
func CheckSymbolicCtx(ctx context.Context, model *tsys.Model, opt Options) (*Result, error) {
	q := NewSymbolicQuery(model, opt)
	defer q.Close()
	return q.CheckCtx(ctx)
}

func pow2f(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 2
	}
	return v
}

// extractWitness walks the onion rings backwards from the trap to an
// initial state and reads off the input variables.
func (e *encoding) extractWitness(m *bdd.Manager, rels []bdd.Ref, rings []bdd.Ref, trap bdd.Ref) (map[tsys.VarID]int64, error) {
	// Find the first ring hitting the trap.
	k := -1
	for i, r := range rings {
		if m.And(r, trap) != bdd.False {
			k = i
			break
		}
	}
	if k < 0 {
		return nil, fmt.Errorf("mc: internal: trap hit but no ring intersects")
	}
	state := e.pickState(m.And(rings[k], trap))
	for i := k - 1; i >= 0; i-- {
		// Predecessors of `state` within ring i.
		nextPred := e.stateAsNext(state)
		pre := bdd.False
		for _, rel := range rels {
			pre = m.Or(pre, m.AndExists(rel, nextPred, e.nextCube))
		}
		cand := m.And(rings[i], pre)
		if cand == bdd.False {
			return nil, fmt.Errorf("mc: internal: broken counterexample chain at ring %d", i)
		}
		state = e.pickState(cand)
	}
	// state is a full assignment of the current-state bits at step 0.
	out := map[tsys.VarID]int64{}
	for id, v := range e.model.Vars {
		// Inputs sliced to zero width (opt.SliceTrap) have no bits to read
		// and no influence on the verdict: any value extends the witness,
		// so the caller fills them from its base environment.
		if !v.Input || v.Bits == 0 {
			continue
		}
		out[tsys.VarID(id)] = e.readVar(state, tsys.VarID(id))
	}
	return out, nil
}

// pickState returns a complete current-state bit assignment satisfying f
// (don't-cares resolved to 0).
func (e *encoding) pickState(f bdd.Ref) []bool {
	assign, ok := e.m.SatOne(f)
	state := make([]bool, e.nbits)
	if !ok {
		return state
	}
	for s := 0; s < e.nbits; s++ {
		if assign[e.curBit(s)] == 1 {
			state[s] = true
		}
	}
	return state
}

// stateAsNext encodes a concrete state over the next-state variables.
func (e *encoding) stateAsNext(state []bool) bdd.Ref {
	r := bdd.True
	for s := 0; s < e.nbits; s++ {
		r = e.m.And(r, e.m.Lit(e.nextBit(s), state[s]))
	}
	return r
}

func (e *encoding) readVar(state []bool, id tsys.VarID) int64 {
	v := e.model.Vars[id]
	var val int64
	for i := 0; i < v.Bits; i++ {
		if state[e.varBit[id][i]] {
			val |= 1 << uint(i)
		}
	}
	if v.Signed && v.Bits < 64 && val&(1<<uint(v.Bits-1)) != 0 {
		val -= 1 << uint(v.Bits)
	}
	return val
}
