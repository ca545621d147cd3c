// Package bv provides symbolic bit-vectors over BDDs: fixed-width two's
// complement words whose bits are BDD functions. The C-to-model translator
// bit-blasts expressions into these vectors; every operation mirrors the
// concrete semantics of internal/interp (asserted by differential tests).
package bv

import (
	"fmt"

	"wcet/internal/bdd"
)

// Vec is a little-endian vector of BDD bits with signedness for extension
// and ordered comparison.
type Vec struct {
	Bits   []bdd.Ref
	Signed bool
}

// Width reports the bit width.
func (v Vec) Width() int { return len(v.Bits) }

// Const builds a constant vector.
func Const(m *bdd.Manager, val int64, bits int, signed bool) Vec {
	v := Vec{Bits: make([]bdd.Ref, bits), Signed: signed}
	for i := 0; i < bits; i++ {
		if val&(1<<uint(i)) != 0 {
			v.Bits[i] = bdd.True
		} else {
			v.Bits[i] = bdd.False
		}
	}
	return v
}

// FromVars builds a vector whose bit i is BDD variable vars[i].
func FromVars(m *bdd.Manager, vars []int, signed bool) Vec {
	v := Vec{Bits: make([]bdd.Ref, len(vars)), Signed: signed}
	for i, idx := range vars {
		v.Bits[i] = m.Var(idx)
	}
	return v
}

// signBit returns the sign/zero extension bit of v.
func (v Vec) signBit() bdd.Ref {
	if !v.Signed || len(v.Bits) == 0 {
		return bdd.False
	}
	return v.Bits[len(v.Bits)-1]
}

// Extend returns v widened (sign- or zero-extended per v.Signed) or
// truncated to the given width.
func Extend(m *bdd.Manager, v Vec, bits int) Vec {
	out := Vec{Bits: make([]bdd.Ref, bits), Signed: v.Signed}
	ext := v.signBit()
	for i := 0; i < bits; i++ {
		if i < len(v.Bits) {
			out.Bits[i] = v.Bits[i]
		} else {
			out.Bits[i] = ext
		}
	}
	return out
}

// Retype returns v with a different signedness flag (no bit change).
func Retype(v Vec, signed bool) Vec {
	return Vec{Bits: v.Bits, Signed: signed}
}

// align widens both operands to a common width.
func align(m *bdd.Manager, a, b Vec) (Vec, Vec) {
	w := a.Width()
	if b.Width() > w {
		w = b.Width()
	}
	return Extend(m, a, w), Extend(m, b, w)
}

// alignCmp widens both operands of a comparison to a width at which their
// values compare exactly. With mixed signedness the common width alone is
// not enough: an unsigned operand at least as wide as the signed one would
// have its top bit read as a sign (x in 0..100 at 7 bits compared with -7
// would make x = 69 negative), so both widen by one more bit, where the
// unsigned value's top bit is always clear.
func alignCmp(m *bdd.Manager, a, b Vec) (Vec, Vec) {
	if a.Signed == b.Signed {
		return align(m, a, b)
	}
	u, s := a.Width(), b.Width()
	if a.Signed {
		u, s = s, u
	}
	if u < s {
		return align(m, a, b)
	}
	return Extend(m, a, u+1), Extend(m, b, u+1)
}

// Add returns a + b at the common width (wrapping).
func Add(m *bdd.Manager, a, b Vec) Vec {
	a, b = align(m, a, b)
	return addWithCarry(m, a, b, bdd.False)
}

// Sub returns a - b at the common width (wrapping).
func Sub(m *bdd.Manager, a, b Vec) Vec {
	a, b = align(m, a, b)
	nb := Vec{Bits: make([]bdd.Ref, b.Width()), Signed: b.Signed}
	for i, bit := range b.Bits {
		nb.Bits[i] = m.Not(bit)
	}
	return addWithCarry(m, a, nb, bdd.True)
}

func addWithCarry(m *bdd.Manager, a, b Vec, carry bdd.Ref) Vec {
	out := Vec{Bits: make([]bdd.Ref, a.Width()), Signed: a.Signed || b.Signed}
	c := carry
	for i := range a.Bits {
		x, y := a.Bits[i], b.Bits[i]
		s := m.Xor(m.Xor(x, y), c)
		c = m.Or(m.And(x, y), m.And(c, m.Xor(x, y)))
		out.Bits[i] = s
	}
	return out
}

// Neg returns -v (two's complement).
func Neg(m *bdd.Manager, v Vec) Vec {
	zero := Const(m, 0, v.Width(), v.Signed)
	return Sub(m, zero, v)
}

// NotBits returns ~v.
func NotBits(m *bdd.Manager, v Vec) Vec {
	out := Vec{Bits: make([]bdd.Ref, v.Width()), Signed: v.Signed}
	for i, b := range v.Bits {
		out.Bits[i] = m.Not(b)
	}
	return out
}

// Bitwise applies a bit-level operator pairwise.
func Bitwise(m *bdd.Manager, op func(a, b bdd.Ref) bdd.Ref, a, b Vec) Vec {
	a, b = align(m, a, b)
	out := Vec{Bits: make([]bdd.Ref, a.Width()), Signed: a.Signed || b.Signed}
	for i := range a.Bits {
		out.Bits[i] = op(a.Bits[i], b.Bits[i])
	}
	return out
}

// Mul returns a × b at the common width (shift-and-add; wrapping).
func Mul(m *bdd.Manager, a, b Vec) Vec {
	a, b = align(m, a, b)
	w := a.Width()
	acc := Const(m, 0, w, a.Signed || b.Signed)
	for i := 0; i < w; i++ {
		// acc += (b[i] ? a << i : 0)
		shifted := ShlConst(m, a, i)
		var masked Vec
		masked.Signed = acc.Signed
		masked.Bits = make([]bdd.Ref, w)
		for j := 0; j < w; j++ {
			masked.Bits[j] = m.And(b.Bits[i], shifted.Bits[j])
		}
		acc = Add(m, acc, masked)
	}
	return acc
}

// ShlConst shifts left by a constant amount.
func ShlConst(m *bdd.Manager, v Vec, k int) Vec {
	out := Vec{Bits: make([]bdd.Ref, v.Width()), Signed: v.Signed}
	for i := range out.Bits {
		if i-k >= 0 && i-k < v.Width() {
			out.Bits[i] = v.Bits[i-k]
		} else {
			out.Bits[i] = bdd.False
		}
	}
	return out
}

// ShrConst shifts right by a constant amount (arithmetic when signed).
func ShrConst(m *bdd.Manager, v Vec, k int) Vec {
	out := Vec{Bits: make([]bdd.Ref, v.Width()), Signed: v.Signed}
	fill := v.signBit()
	for i := range out.Bits {
		if i+k < v.Width() {
			out.Bits[i] = v.Bits[i+k]
		} else {
			out.Bits[i] = fill
		}
	}
	return out
}

// Eq returns the predicate a == b over the operands' values.
func Eq(m *bdd.Manager, a, b Vec) bdd.Ref {
	a, b = alignCmp(m, a, b)
	r := bdd.True
	for i := range a.Bits {
		r = m.And(r, m.Iff(a.Bits[i], b.Bits[i]))
		if r == bdd.False {
			break
		}
	}
	return r
}

// Lt returns the predicate a < b over the operands' values: signed when
// either operand is signed, at a width where both values are exact.
func Lt(m *bdd.Manager, a, b Vec) bdd.Ref {
	a, b = alignCmp(m, a, b)
	signed := a.Signed || b.Signed
	w := a.Width()
	if w == 0 {
		return bdd.False
	}
	// Compare from the least significant bit up: lt_i incorporates bits < i.
	lt := bdd.False
	for i := 0; i < w; i++ {
		ai, bi := a.Bits[i], b.Bits[i]
		if i == w-1 && signed {
			// Sign bit inverts the comparison: a negative, b non-negative → a < b.
			biGTai := m.And(ai, m.Not(bi)) // a sign 1, b sign 0 → a < b
			eq := m.Iff(ai, bi)
			lt = m.Or(biGTai, m.And(eq, lt))
			continue
		}
		biMore := m.And(m.Not(ai), bi)
		eq := m.Iff(ai, bi)
		lt = m.Or(biMore, m.And(eq, lt))
	}
	return lt
}

// Le returns a <= b.
func Le(m *bdd.Manager, a, b Vec) bdd.Ref {
	return m.Or(Lt(m, a, b), Eq(m, a, b))
}

// NonZero returns the predicate v != 0.
func NonZero(m *bdd.Manager, v Vec) bdd.Ref {
	r := bdd.False
	for _, b := range v.Bits {
		r = m.Or(r, b)
	}
	return r
}

// Mux returns c ? a : b bitwise.
func Mux(m *bdd.Manager, c bdd.Ref, a, b Vec) Vec {
	a, b = align(m, a, b)
	out := Vec{Bits: make([]bdd.Ref, a.Width()), Signed: a.Signed || b.Signed}
	for i := range a.Bits {
		out.Bits[i] = m.ITE(c, a.Bits[i], b.Bits[i])
	}
	return out
}

// Eval evaluates the vector under a total assignment, interpreting the
// result per the vector's signedness.
func Eval(m *bdd.Manager, v Vec, assign []bool) int64 {
	var out int64
	for i, b := range v.Bits {
		if m.Eval(b, assign) {
			out |= 1 << uint(i)
		}
	}
	if v.Signed && v.Width() > 0 && v.Width() < 64 && out&(1<<uint(v.Width()-1)) != 0 {
		out -= 1 << uint(v.Width())
	}
	return out
}

// String renders constant vectors, else a placeholder.
func (v Vec) String() string {
	return fmt.Sprintf("bv%d", v.Width())
}
