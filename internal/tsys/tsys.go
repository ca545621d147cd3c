// Package tsys defines the transition-system intermediate representation
// that stands in for the SAL language in this reproduction: typed state
// variables, control locations, and guarded parallel-assignment edges.
//
// The C-to-model translator (internal/c2m) produces one Model per analysed
// function; the optimisation passes (internal/opt) rewrite Models; the
// model checker (internal/mc) explores them symbolically or explicitly.
package tsys

import (
	"fmt"
	"strings"

	"wcet/internal/cc/token"
)

// VarID indexes a state variable.
type VarID int

// Loc is a control location (program counter value).
type Loc int

// InitKind describes a variable's initial-state constraint.
type InitKind int

// Initial-state kinds.
const (
	// InitFree leaves the initial value unconstrained — the model checker
	// may choose any representable value (inputs, uninitialised locals).
	InitFree InitKind = iota
	// InitConst pins the initial value.
	InitConst
)

// Var is one state variable.
type Var struct {
	ID     VarID
	Name   string
	Bits   int
	Signed bool
	Init   InitKind
	// InitVal is the pinned initial value for InitConst.
	InitVal int64
	// Input marks model inputs: they always stay InitFree and are the
	// values reported as test data.
	Input bool
	// Lo and Hi bound the value range when range analysis has run
	// (Bits is then the width of this range).
	Lo, Hi int64
	// HasRange reports whether Lo/Hi are meaningful.
	HasRange bool
}

// Assign sets Var to the value of RHS (evaluated in the pre-state).
type Assign struct {
	Var VarID
	RHS Expr
}

// Edge is a guarded transition: enabled at From when Guard holds; performs
// all assignments simultaneously (RHS read the pre-state) and moves to To.
type Edge struct {
	From, To Loc
	// Guard is nil for an always-enabled edge.
	Guard Expr
	// Assigns execute in parallel.
	Assigns []Assign
	// Chain groups edges lowered from the same basic block; the statement
	// concatenation optimisation only merges within a chain.
	Chain int
}

// Model is a complete transition system.
type Model struct {
	Name  string
	Vars  []*Var
	NLocs int
	Init  Loc
	Edges []*Edge
	// Trap is the target location of a reachability query (NoLoc if unset).
	Trap Loc
}

// NoLoc marks an absent location.
const NoLoc Loc = -1

// NewVar appends a variable and returns it.
func (m *Model) NewVar(name string, bits int, signed bool) *Var {
	v := &Var{ID: VarID(len(m.Vars)), Name: name, Bits: bits, Signed: signed}
	m.Vars = append(m.Vars, v)
	return v
}

// NewLoc allocates a fresh location.
func (m *Model) NewLoc() Loc {
	m.NLocs++
	return Loc(m.NLocs - 1)
}

// AddEdge appends an edge.
func (m *Model) AddEdge(e *Edge) { m.Edges = append(m.Edges, e) }

// Var returns the variable with the given id.
func (m *Model) Var(id VarID) *Var { return m.Vars[id] }

// StateBits sums the variable widths plus the location encoding — the
// paper's "number of bits required to encode the state vector".
func (m *Model) StateBits() int {
	bits := locBits(m.NLocs)
	for _, v := range m.Vars {
		bits += v.Bits
	}
	return bits
}

func locBits(n int) int {
	bits := 1
	for (1 << uint(bits)) < n {
		bits++
	}
	return bits
}

// LocBits reports the location-encoding width.
func (m *Model) LocBits() int { return locBits(m.NLocs) }

// OutEdges lists the edges leaving each location.
func (m *Model) OutEdges() map[Loc][]*Edge {
	out := map[Loc][]*Edge{}
	for _, e := range m.Edges {
		out[e.From] = append(out[e.From], e)
	}
	return out
}

// Clone deep-copies the model (expressions are immutable and shared).
func (m *Model) Clone() *Model {
	out := &Model{Name: m.Name, NLocs: m.NLocs, Init: m.Init, Trap: m.Trap}
	out.Vars = make([]*Var, len(m.Vars))
	for i, v := range m.Vars {
		c := *v
		out.Vars[i] = &c
	}
	out.Edges = make([]*Edge, len(m.Edges))
	for i, e := range m.Edges {
		c := *e
		c.Assigns = append([]Assign(nil), e.Assigns...)
		out.Edges[i] = &c
	}
	return out
}

// String renders the model in a SAL-flavoured text form for inspection.
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MODULE %s\n", m.Name)
	fmt.Fprintf(&b, "  locations: %d (init %d, trap %d), state bits: %d\n",
		m.NLocs, m.Init, m.Trap, m.StateBits())
	for _, v := range m.Vars {
		init := "free"
		if v.Init == InitConst {
			init = fmt.Sprintf("= %d", v.InitVal)
		}
		kind := ""
		if v.Input {
			kind = " INPUT"
		}
		fmt.Fprintf(&b, "  VAR %s: bits=%d signed=%v init %s%s\n", v.Name, v.Bits, v.Signed, init, kind)
	}
	for _, e := range m.Edges {
		fmt.Fprintf(&b, "  L%d -> L%d", e.From, e.To)
		if e.Guard != nil {
			fmt.Fprintf(&b, " [%s]", ExprString(m, e.Guard))
		}
		for _, a := range e.Assigns {
			fmt.Fprintf(&b, " %s' = %s;", m.Vars[a.Var].Name, ExprString(m, a.RHS))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is the model expression IR. Expressions are pure; side effects exist
// only as edge assignments.
type Expr interface {
	exprNode()
}

// Const is an integer literal.
type Const struct {
	Val int64
}

// Ref reads a variable.
type Ref struct {
	Var VarID
}

// Un is a unary operation (-, ~, !).
type Un struct {
	Op token.Kind
	X  Expr
}

// Bin is a binary operation (arithmetic, bitwise, relational, logical).
type Bin struct {
	Op   token.Kind
	X, Y Expr
}

// CondE is the ternary select c ? t : f.
type CondE struct {
	C, T, F Expr
}

// CastE truncates/extends X to the given width.
type CastE struct {
	Bits   int
	Signed bool
	X      Expr
}

func (*Const) exprNode() {}
func (*Ref) exprNode()   {}
func (*Un) exprNode()    {}
func (*Bin) exprNode()   {}
func (*CondE) exprNode() {}
func (*CastE) exprNode() {}

// ExprString renders an expression.
func ExprString(m *Model, e Expr) string {
	switch x := e.(type) {
	case *Const:
		return fmt.Sprintf("%d", x.Val)
	case *Ref:
		return m.Vars[x.Var].Name
	case *Un:
		return x.Op.String() + "(" + ExprString(m, x.X) + ")"
	case *Bin:
		return "(" + ExprString(m, x.X) + " " + x.Op.String() + " " + ExprString(m, x.Y) + ")"
	case *CondE:
		return "(" + ExprString(m, x.C) + " ? " + ExprString(m, x.T) + " : " + ExprString(m, x.F) + ")"
	case *CastE:
		return fmt.Sprintf("(bv%d)%s", x.Bits, ExprString(m, x.X))
	}
	return "?"
}

// ReadVars collects the variables read by e into set.
func ReadVars(e Expr, set map[VarID]bool) {
	switch x := e.(type) {
	case nil:
	case *Const:
	case *Ref:
		set[x.Var] = true
	case *Un:
		ReadVars(x.X, set)
	case *Bin:
		ReadVars(x.X, set)
		ReadVars(x.Y, set)
	case *CondE:
		ReadVars(x.C, set)
		ReadVars(x.T, set)
		ReadVars(x.F, set)
	case *CastE:
		ReadVars(x.X, set)
	}
}

// Subst returns e with every read of v replaced by repl.
func Subst(e Expr, v VarID, repl Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Const:
		return x
	case *Ref:
		if x.Var == v {
			return repl
		}
		return x
	case *Un:
		return &Un{Op: x.Op, X: Subst(x.X, v, repl)}
	case *Bin:
		return &Bin{Op: x.Op, X: Subst(x.X, v, repl), Y: Subst(x.Y, v, repl)}
	case *CondE:
		return &CondE{C: Subst(x.C, v, repl), T: Subst(x.T, v, repl), F: Subst(x.F, v, repl)}
	case *CastE:
		return &CastE{Bits: x.Bits, Signed: x.Signed, X: Subst(x.X, v, repl)}
	}
	return e
}

// Size counts expression nodes (used to bound substitution growth).
func Size(e Expr) int {
	switch x := e.(type) {
	case nil:
		return 0
	case *Const, *Ref:
		return 1
	case *Un:
		return 1 + Size(x.X)
	case *Bin:
		return 1 + Size(x.X) + Size(x.Y)
	case *CondE:
		return 1 + Size(x.C) + Size(x.T) + Size(x.F)
	case *CastE:
		return 1 + Size(x.X)
	}
	return 1
}

// ---------------------------------------------------------------------------
// Concrete evaluation (used by the explicit-state engine and tests)

// EvalErr reports a fault during concrete evaluation.
type EvalErr struct{ Msg string }

func (e *EvalErr) Error() string { return "tsys: " + e.Msg }

// Eval computes e under the concrete state vals (indexed by VarID). Values
// are stored truncated to their variable's width; intermediate arithmetic is
// exact in int64, with relational results 0/1.
func Eval(m *Model, e Expr, vals []int64) (int64, error) {
	switch x := e.(type) {
	case *Const:
		return x.Val, nil
	case *Ref:
		return vals[x.Var], nil
	case *Un:
		v, err := Eval(m, x.X, vals)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case token.MINUS:
			return -v, nil
		case token.TILDE:
			return ^v, nil
		case token.BANG:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		case token.PLUS:
			return v, nil
		}
		return 0, &EvalErr{Msg: "bad unary " + x.Op.String()}
	case *Bin:
		a, err := Eval(m, x.X, vals)
		if err != nil {
			return 0, err
		}
		// Short-circuit forms keep C semantics.
		if x.Op == token.LAND {
			if a == 0 {
				return 0, nil
			}
			b, err := Eval(m, x.Y, vals)
			if err != nil {
				return 0, err
			}
			return boolInt(b != 0), nil
		}
		if x.Op == token.LOR {
			if a != 0 {
				return 1, nil
			}
			b, err := Eval(m, x.Y, vals)
			if err != nil {
				return 0, err
			}
			return boolInt(b != 0), nil
		}
		b, err := Eval(m, x.Y, vals)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case token.PLUS:
			return a + b, nil
		case token.MINUS:
			return a - b, nil
		case token.STAR:
			return a * b, nil
		case token.SLASH:
			if b == 0 {
				return 0, &EvalErr{Msg: "division by zero"}
			}
			return a / b, nil
		case token.PERCENT:
			if b == 0 {
				return 0, &EvalErr{Msg: "modulo by zero"}
			}
			return a % b, nil
		case token.SHL:
			return a << uint(b&63), nil
		case token.SHR:
			return a >> uint(b&63), nil
		case token.AMP:
			return a & b, nil
		case token.PIPE:
			return a | b, nil
		case token.CARET:
			return a ^ b, nil
		case token.LT:
			return boolInt(a < b), nil
		case token.GT:
			return boolInt(a > b), nil
		case token.LE:
			return boolInt(a <= b), nil
		case token.GE:
			return boolInt(a >= b), nil
		case token.EQ:
			return boolInt(a == b), nil
		case token.NE:
			return boolInt(a != b), nil
		}
		return 0, &EvalErr{Msg: "bad binary " + x.Op.String()}
	case *CondE:
		c, err := Eval(m, x.C, vals)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return Eval(m, x.T, vals)
		}
		return Eval(m, x.F, vals)
	case *CastE:
		v, err := Eval(m, x.X, vals)
		if err != nil {
			return 0, err
		}
		return TruncateBits(v, x.Bits, x.Signed), nil
	}
	return 0, &EvalErr{Msg: fmt.Sprintf("bad expression %T", e)}
}

func boolInt(c bool) int64 {
	if c {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Structural fingerprint

// Fingerprint hashes the model's checkable structure — variables (width,
// signedness, initialisation, ranges), locations, and edges with their full
// guard and assignment expressions — into a 64-bit FNV-1a digest. Two models
// with equal fingerprints pose the same symbolic query, so the fingerprint
// can key in-process caches of query-derived artifacts. Names are
// excluded: they do not influence the encoding.
func (m *Model) Fingerprint() uint64 {
	h := fnvOffset
	h = fnvInt(h, int64(m.NLocs))
	h = fnvInt(h, int64(m.Init))
	h = fnvInt(h, int64(m.Trap))
	h = fnvInt(h, int64(len(m.Vars)))
	for _, v := range m.Vars {
		h = fnvInt(h, int64(v.Bits))
		h = fnvBool(h, v.Signed)
		h = fnvInt(h, int64(v.Init))
		h = fnvInt(h, v.InitVal)
		h = fnvBool(h, v.Input)
		h = fnvBool(h, v.HasRange)
		if v.HasRange {
			h = fnvInt(h, v.Lo)
			h = fnvInt(h, v.Hi)
		}
	}
	h = fnvInt(h, int64(len(m.Edges)))
	for _, e := range m.Edges {
		h = fnvInt(h, int64(e.From))
		h = fnvInt(h, int64(e.To))
		h = fnvExpr(h, e.Guard)
		h = fnvInt(h, int64(len(e.Assigns)))
		for _, a := range e.Assigns {
			h = fnvInt(h, int64(a.Var))
			h = fnvExpr(h, a.RHS)
		}
	}
	return h
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvInt(h uint64, v int64) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}

func fnvBool(h uint64, b bool) uint64 {
	if b {
		return fnvByte(h, 1)
	}
	return fnvByte(h, 0)
}

// fnvExpr folds an expression tree into the digest with per-kind tags, so
// structurally different trees cannot collide by flattening alike.
func fnvExpr(h uint64, e Expr) uint64 {
	switch x := e.(type) {
	case nil:
		return fnvByte(h, 0)
	case *Const:
		return fnvInt(fnvByte(h, 1), x.Val)
	case *Ref:
		return fnvInt(fnvByte(h, 2), int64(x.Var))
	case *Un:
		return fnvExpr(fnvInt(fnvByte(h, 3), int64(x.Op)), x.X)
	case *Bin:
		h = fnvInt(fnvByte(h, 4), int64(x.Op))
		return fnvExpr(fnvExpr(h, x.X), x.Y)
	case *CondE:
		return fnvExpr(fnvExpr(fnvExpr(fnvByte(h, 5), x.C), x.T), x.F)
	case *CastE:
		h = fnvBool(fnvInt(fnvByte(h, 6), int64(x.Bits)), x.Signed)
		return fnvExpr(h, x.X)
	}
	return fnvByte(h, 255)
}

// TruncateBits wraps v to a two's-complement width.
func TruncateBits(v int64, bits int, signed bool) int64 {
	if bits <= 0 || bits >= 64 {
		return v
	}
	mask := (int64(1) << uint(bits)) - 1
	v &= mask
	if signed && v&(int64(1)<<uint(bits-1)) != 0 {
		v -= int64(1) << uint(bits)
	}
	return v
}
