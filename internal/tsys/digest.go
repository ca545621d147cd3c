package tsys

import (
	"encoding/binary"
	"io"
)

// WriteDigest streams a versioned canonical encoding of the model's
// checkable structure into w — the same fields Fingerprint folds into its
// 64-bit FNV digest (variables with width, signedness, initialisation and
// ranges; locations; edges with full guard and assignment expressions),
// but as an unbounded byte stream suitable for a cryptographic hash.
// Fingerprint suits in-process caches where a 64-bit digest is plenty;
// persistent stores shared across program edits key on a 256-bit hash of
// this encoding instead, where an accidental collision
// would silently replay a wrong verdict. Names are excluded, like in
// Fingerprint: they do not influence the encoding.
//
// The encoding is length- and tag-disciplined (every list is preceded by
// its count, every expression node by its kind tag), so two different
// models cannot flatten to the same byte stream. The version tag makes a
// digest from an older encoding unreadable rather than wrong.
func (m *Model) WriteDigest(w io.Writer) {
	d := digestWriter{w: w}
	d.str("tsys-model-v1\x00")
	d.i64(int64(m.NLocs))
	d.i64(int64(m.Init))
	d.i64(int64(m.Trap))
	d.i64(int64(len(m.Vars)))
	for _, v := range m.Vars {
		d.i64(int64(v.Bits))
		d.bool(v.Signed)
		d.i64(int64(v.Init))
		d.i64(v.InitVal)
		d.bool(v.Input)
		d.bool(v.HasRange)
		if v.HasRange {
			d.i64(v.Lo)
			d.i64(v.Hi)
		}
	}
	d.i64(int64(len(m.Edges)))
	for _, e := range m.Edges {
		d.i64(int64(e.From))
		d.i64(int64(e.To))
		d.expr(e.Guard)
		d.i64(int64(len(e.Assigns)))
		for _, a := range e.Assigns {
			d.i64(int64(a.Var))
			d.expr(a.RHS)
		}
	}
}

// digestWriter serialises primitives into the digest stream. Writes to a
// hash never fail, so errors are ignored; a non-hash writer sees the same
// best-effort behaviour io.Writer wrappers usually get in digest code.
type digestWriter struct {
	w   io.Writer
	buf [8]byte
}

func (d *digestWriter) str(s string) { io.WriteString(d.w, s) }

func (d *digestWriter) i64(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.w.Write(d.buf[:])
}

func (d *digestWriter) bool(b bool) {
	if b {
		d.w.Write([]byte{1})
	} else {
		d.w.Write([]byte{0})
	}
}

// expr mirrors fnvExpr's per-kind tags so the two digests agree on
// structure discrimination.
func (d *digestWriter) expr(e Expr) {
	switch x := e.(type) {
	case nil:
		d.w.Write([]byte{0})
	case *Const:
		d.w.Write([]byte{1})
		d.i64(x.Val)
	case *Ref:
		d.w.Write([]byte{2})
		d.i64(int64(x.Var))
	case *Un:
		d.w.Write([]byte{3})
		d.i64(int64(x.Op))
		d.expr(x.X)
	case *Bin:
		d.w.Write([]byte{4})
		d.i64(int64(x.Op))
		d.expr(x.X)
		d.expr(x.Y)
	case *CondE:
		d.w.Write([]byte{5})
		d.expr(x.C)
		d.expr(x.T)
		d.expr(x.F)
	case *CastE:
		d.w.Write([]byte{6})
		d.i64(int64(x.Bits))
		d.bool(x.Signed)
		d.expr(x.X)
	default:
		d.w.Write([]byte{255})
	}
}
