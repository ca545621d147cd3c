package opt_test

import (
	"testing"

	"wcet/internal/mc"
	"wcet/internal/opt"
	"wcet/internal/tsys"
)

// findVar returns the named variable or fails the test.
func findVar(t *testing.T, m *tsys.Model, name string) *tsys.Var {
	t.Helper()
	for _, v := range m.Vars {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("variable %q not found", name)
	return nil
}

// TestSliceTrapDropsIrrelevant: lowerSrc picks the lexically-last path —
// the else branch, whose only guard reads sw. The per-trap slice must zero
// everything else (dbg, unused, out, and the a → t1 → level chain no
// surviving guard depends on) while keeping the branch input sw.
func TestSliceTrapDropsIrrelevant(t *testing.T) {
	m, _, _, _ := lowerSrc(t, optSrc, "f", true)
	opt.VarInit(m)
	st := opt.SliceTrap(m)
	for _, name := range []string{"dbg", "unused", "out", "a"} {
		if v := findVar(t, m, name); v.Bits != 0 {
			t.Errorf("%s survived the slice with %d bits (%s)", name, v.Bits, st.Detail)
		}
	}
	if v := findVar(t, m, "sw"); v.Bits == 0 {
		t.Error("guard-relevant input sw was sliced away")
	}
	if st.BitsAfter >= st.BitsBefore {
		t.Errorf("slice did not shrink state bits: %d → %d", st.BitsBefore, st.BitsAfter)
	}
}

// TestSliceTrapPreservesVerdict: slicing the lexically-first path's model
// must not change its verdict.
func TestSliceTrapPreservesVerdict(t *testing.T) {
	m, _, _, _ := lowerSrc(t, optSrc, "f", true)
	opt.VarInit(m)
	sliced := m.Clone()
	opt.SliceTrap(sliced)
	// The explicit engine never slices: it checks exactly the models this
	// test prepared.
	full, err := mc.CheckExplicit(m, mc.Options{})
	if err != nil {
		t.Fatalf("unsliced: %v", err)
	}
	sres, err := mc.CheckExplicit(sliced, mc.Options{})
	if err != nil {
		t.Fatalf("sliced: %v", err)
	}
	if full.Reachable != sres.Reachable {
		t.Fatalf("slice changed the verdict: %v vs %v", full.Reachable, sres.Reachable)
	}
	if sres.Stats.StateBits >= full.Stats.StateBits {
		t.Errorf("slice did not shrink the checked state vector: %d vs %d",
			sres.Stats.StateBits, full.Stats.StateBits)
	}
}

// TestSliceTrapNoTrap: without a trap the pass must be an exact no-op.
func TestSliceTrapNoTrap(t *testing.T) {
	m, _, _, _ := lowerSrc(t, optSrc, "f", true)
	m.Trap = tsys.NoLoc
	edges, bits := len(m.Edges), m.StateBits()
	st := opt.SliceTrap(m)
	if len(m.Edges) != edges || m.StateBits() != bits {
		t.Errorf("no-trap slice modified the model: %s", st.Detail)
	}
}

// TestSliceTrapUnreachableTrap: a trap no edge can reach leaves nothing on
// any trap-reaching run — the transition slice must drop every edge.
func TestSliceTrapUnreachableTrap(t *testing.T) {
	m, _, _, _ := lowerSrc(t, optSrc, "f", true)
	m.Trap = m.NewLoc() // fresh location, no incoming edges
	opt.SliceTrap(m)
	if len(m.Edges) != 0 {
		t.Errorf("%d edges survived a statically unreachable trap", len(m.Edges))
	}
	res, err := mc.CheckExplicit(m, mc.Options{})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if res.Reachable {
		t.Error("sliced model reports an unreachable trap as reachable")
	}
}

// TestSliceTrapComposesWithAll: run after the full Section 3.2 pipeline the
// slice must still be sound (same verdict) and must never grow the model.
func TestSliceTrapComposesWithAll(t *testing.T) {
	m, _, _, _ := lowerSrc(t, optSrc, "f", true)
	opt.All(m)
	before, err := mc.CheckExplicit(m, mc.Options{})
	if err != nil {
		t.Fatalf("optimised: %v", err)
	}
	st := opt.SliceTrap(m)
	after, err := mc.CheckExplicit(m, mc.Options{})
	if err != nil {
		t.Fatalf("optimised+sliced: %v", err)
	}
	if before.Reachable != after.Reachable {
		t.Fatalf("slice after All changed the verdict: %v vs %v",
			before.Reachable, after.Reachable)
	}
	if st.BitsAfter > st.BitsBefore || st.EdgesAfter > st.EdgesBefore {
		t.Errorf("slice grew the model: bits %d→%d, edges %d→%d",
			st.BitsBefore, st.BitsAfter, st.EdgesBefore, st.EdgesAfter)
	}
}
