package bv

import (
	"testing"
	"testing/quick"

	"wcet/internal/bdd"
)

// harness builds two symbolic 8-bit inputs and evaluates an operation
// against its concrete counterpart for all (or random) operand values.
type harness struct {
	m    *bdd.Manager
	a, b Vec
}

func newHarness(signed bool) *harness {
	m := bdd.New(16)
	av := make([]int, 8)
	bvars := make([]int, 8)
	for i := 0; i < 8; i++ {
		av[i] = i
		bvars[i] = 8 + i
	}
	return &harness{
		m: m,
		a: FromVars(m, av, signed),
		b: FromVars(m, bvars, signed),
	}
}

func (h *harness) assign(a, b int64) []bool {
	out := make([]bool, 16)
	for i := 0; i < 8; i++ {
		out[i] = a&(1<<uint(i)) != 0
		out[8+i] = b&(1<<uint(i)) != 0
	}
	return out
}

func signed8(v int64) int64 {
	v &= 0xFF
	if v&0x80 != 0 {
		v -= 0x100
	}
	return v
}

func TestQuickAddSub(t *testing.T) {
	h := newHarness(true)
	sum := Add(h.m, h.a, h.b)
	dif := Sub(h.m, h.a, h.b)
	f := func(a, b int8) bool {
		asg := h.assign(int64(a), int64(b))
		gotSum := Eval(h.m, sum, asg)
		gotDif := Eval(h.m, dif, asg)
		return gotSum == signed8(int64(a)+int64(b)) && gotDif == signed8(int64(a)-int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMul(t *testing.T) {
	h := newHarness(true)
	prod := Mul(h.m, h.a, h.b)
	f := func(a, b int8) bool {
		asg := h.assign(int64(a), int64(b))
		return Eval(h.m, prod, asg) == signed8(int64(a)*int64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickComparisonsSigned(t *testing.T) {
	h := newHarness(true)
	lt := Lt(h.m, h.a, h.b)
	le := Le(h.m, h.a, h.b)
	eq := Eq(h.m, h.a, h.b)
	f := func(a, b int8) bool {
		asg := h.assign(int64(a), int64(b))
		return h.m.Eval(lt, asg) == (a < b) &&
			h.m.Eval(le, asg) == (a <= b) &&
			h.m.Eval(eq, asg) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickComparisonsUnsigned(t *testing.T) {
	h := newHarness(false)
	lt := Lt(h.m, h.a, h.b)
	f := func(a, b uint8) bool {
		asg := h.assign(int64(a), int64(b))
		return h.m.Eval(lt, asg) == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBitwiseAndShifts(t *testing.T) {
	h := newHarness(false)
	andv := Bitwise(h.m, h.m.And, h.a, h.b)
	orv := Bitwise(h.m, h.m.Or, h.a, h.b)
	xorv := Bitwise(h.m, h.m.Xor, h.a, h.b)
	notv := NotBits(h.m, h.a)
	shl3 := ShlConst(h.m, h.a, 3)
	shr2 := ShrConst(h.m, h.a, 2)
	f := func(a, b uint8) bool {
		asg := h.assign(int64(a), int64(b))
		return Eval(h.m, andv, asg) == int64(a&b) &&
			Eval(h.m, orv, asg) == int64(a|b) &&
			Eval(h.m, xorv, asg) == int64(a^b) &&
			Eval(h.m, notv, asg) == int64(^a) &&
			Eval(h.m, shl3, asg) == int64(a<<3) &&
			Eval(h.m, shr2, asg) == int64(a>>2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmeticShiftRight(t *testing.T) {
	h := newHarness(true)
	shr := ShrConst(h.m, h.a, 2)
	f := func(a int8) bool {
		asg := h.assign(int64(a), 0)
		return Eval(h.m, shr, asg) == int64(a>>2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegAndNonZero(t *testing.T) {
	h := newHarness(true)
	neg := Neg(h.m, h.a)
	nz := NonZero(h.m, h.a)
	f := func(a int8) bool {
		asg := h.assign(int64(a), 0)
		return Eval(h.m, neg, asg) == signed8(-int64(a)) &&
			h.m.Eval(nz, asg) == (a != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtendSignAndZero(t *testing.T) {
	m := bdd.New(8)
	vars := []int{0, 1, 2, 3}
	sv := FromVars(m, vars, true)
	uv := FromVars(m, vars, false)
	s8 := Extend(m, sv, 8)
	u8 := Extend(m, uv, 8)
	for val := int64(0); val < 16; val++ {
		asg := make([]bool, 8)
		for i := 0; i < 4; i++ {
			asg[i] = val&(1<<uint(i)) != 0
		}
		wantS := val
		if val >= 8 {
			wantS = val - 16
		}
		if got := Eval(m, s8, asg); got != wantS {
			t.Errorf("sign extend %d → %d, want %d", val, got, wantS)
		}
		if got := Eval(m, u8, asg); got != val {
			t.Errorf("zero extend %d → %d, want %d", val, got, val)
		}
	}
}

func TestMixedWidthAlignment(t *testing.T) {
	m := bdd.New(8)
	a := FromVars(m, []int{0, 1, 2, 3}, true) // 4-bit signed
	c := Const(m, 100, 8, true)
	sum := Add(m, a, c)
	asg := make([]bool, 8)
	// a = -3 (0b1101)
	asg[0], asg[2], asg[3] = true, true, true
	if got := Eval(m, sum, asg); got != 97 {
		t.Errorf("-3 + 100 = %d, want 97", got)
	}
}

func TestMux(t *testing.T) {
	m := bdd.New(9)
	cond := m.Var(8)
	a := FromVars(m, []int{0, 1, 2, 3}, false)
	b := FromVars(m, []int{4, 5, 6, 7}, false)
	mx := Mux(m, cond, a, b)
	asg := make([]bool, 9)
	asg[1] = true // a = 2
	asg[4] = true // b = 1
	asg[8] = true
	if got := Eval(m, mx, asg); got != 2 {
		t.Errorf("mux(true) = %d, want 2", got)
	}
	asg[8] = false
	if got := Eval(m, mx, asg); got != 1 {
		t.Errorf("mux(false) = %d, want 1", got)
	}
}

func TestConstRoundTrip(t *testing.T) {
	m := bdd.New(1)
	for _, v := range []int64{0, 1, -1, 42, -128, 127} {
		c := Const(m, v, 8, true)
		if got := Eval(m, c, []bool{false}); got != v {
			t.Errorf("Const(%d) evaluates to %d", v, got)
		}
	}
}

// TestMixedSignComparisons compares an unsigned operand with a signed one
// at every pair of widths and values. The interpreter compares the two
// values as plain integers, whatever their types' widths and signedness,
// so the symbolic predicates must too. Range analysis makes such pairs
// common: x in 0..100 narrows to 7-bit unsigned, and x < -7 then compared
// x = 69 as the 7-bit signed value -59.
func TestMixedSignComparisons(t *testing.T) {
	for uw := 1; uw <= 5; uw++ {
		for sw := 1; sw <= 5; sw++ {
			m := bdd.New(uw + sw)
			uvars := make([]int, uw)
			for i := range uvars {
				uvars[i] = i
			}
			svars := make([]int, sw)
			for i := range svars {
				svars[i] = uw + i
			}
			u := FromVars(m, uvars, false)
			s := FromVars(m, svars, true)
			preds := []struct {
				name string
				f    bdd.Ref
				want func(a, b int64) bool
			}{
				{"u<s", Lt(m, u, s), func(a, b int64) bool { return a < b }},
				{"s<u", Lt(m, s, u), func(a, b int64) bool { return b < a }},
				{"u<=s", Le(m, u, s), func(a, b int64) bool { return a <= b }},
				{"s<=u", Le(m, s, u), func(a, b int64) bool { return b <= a }},
				{"u==s", Eq(m, u, s), func(a, b int64) bool { return a == b }},
			}
			for uv := int64(0); uv < 1<<uint(uw); uv++ {
				for sraw := int64(0); sraw < 1<<uint(sw); sraw++ {
					sv := sraw
					if sraw >= 1<<uint(sw-1) {
						sv -= 1 << uint(sw)
					}
					asg := make([]bool, uw+sw)
					for i := 0; i < uw; i++ {
						asg[i] = uv&(1<<uint(i)) != 0
					}
					for i := 0; i < sw; i++ {
						asg[uw+i] = sraw&(1<<uint(i)) != 0
					}
					for _, p := range preds {
						if got := m.Eval(p.f, asg); got != p.want(uv, sv) {
							t.Fatalf("%d-bit unsigned %d, %d-bit signed %d: %s = %v, want %v",
								uw, uv, sw, sv, p.name, got, !got)
						}
					}
				}
			}
		}
	}
}
