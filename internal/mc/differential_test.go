package mc

import (
	"context"
	"math/rand"
	"testing"

	"wcet/internal/opt"
	"wcet/internal/tsys"
)

// Differential tests for the three symbolic-speed levers: per-trap slicing,
// dynamic variable reordering, and manager pooling. Each lever must be
// invisible to verdicts and witnesses (checked against the engine with the
// lever off and by concrete replay on the explicit engine), and pooling
// must additionally be invisible to deterministic statistics.

// checkWith is CheckSymbolic with the given levers switched off — the
// reference modes production never runs.
func checkWith(m *tsys.Model, lv levers) (*Result, error) {
	q := newQuery(m, Options{}, lv, false)
	defer q.Close()
	return q.CheckCtx(context.Background())
}

// confirmWitness pins a witness into a clone of the model and requires the
// trap to stay explicitly reachable — the concrete validity check shared
// with the engine-agreement harness.
func confirmWitness(t *testing.T, trial int, m *tsys.Model, witness map[tsys.VarID]int64) {
	t.Helper()
	pinned := m.Clone()
	for id, val := range witness {
		v := pinned.Vars[id]
		v.Input = false
		v.Init = tsys.InitConst
		v.InitVal = val
	}
	rep, err := CheckExplicit(pinned, Options{})
	if err != nil {
		t.Fatalf("trial %d: witness replay: %v", trial, err)
	}
	if !rep.Reachable {
		t.Fatalf("trial %d: witness %v does not reach the trap explicitly on\n%s",
			trial, witness, m)
	}
}

// confirmWitnessZeroed replays a sliced witness on the unsliced model with
// every input the witness omits pinned to a concrete value — zero, or the
// range floor when zero lies outside the declared range — instead of left
// free. The slice's soundness argument is that *every* value of an
// irrelevant input extends a trap-reaching run, so the most degenerate
// assignment must work too; this is the property the verdict cache leans
// on when it serves a sliced verdict across a program edit. Returns how
// many inputs the witness omitted.
func confirmWitnessZeroed(t *testing.T, trial int, m *tsys.Model, witness map[tsys.VarID]int64) int {
	t.Helper()
	pinned := m.Clone()
	omitted := 0
	for _, v := range pinned.Vars {
		if _, ok := witness[v.ID]; ok || !v.Input {
			continue
		}
		omitted++
		val := int64(0)
		if v.HasRange && (v.Lo > 0 || v.Hi < 0) {
			val = v.Lo
		}
		v.Input = false
		v.Init = tsys.InitConst
		v.InitVal = val
	}
	for id, val := range witness {
		v := pinned.Vars[id]
		v.Input = false
		v.Init = tsys.InitConst
		v.InitVal = val
	}
	if omitted == 0 {
		return 0
	}
	rep, err := CheckExplicit(pinned, Options{})
	if err != nil {
		t.Fatalf("trial %d: zeroed witness replay: %v", trial, err)
	}
	if !rep.Reachable {
		t.Fatalf("trial %d: witness %v with omitted inputs zeroed does not reach the trap on\n%s",
			trial, witness, m)
	}
	return omitted
}

// TestSlicedVsUnslicedAgree: the symbolic engine's built-in per-trap slice
// must preserve the verdict of every random model, and a sliced witness —
// which omits sliced-away inputs — must still drive the *unsliced* model
// into the trap, both with the irrelevant inputs left free (any value
// extends the run) and with them pinned to zero.
func TestSlicedVsUnslicedAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	reachable, shrunk, omittedInputs := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		m := randModel(rng)
		probe := m.Clone()
		ps := opt.SliceTrap(probe)
		if ps.BitsAfter < ps.BitsBefore || ps.EdgesAfter < ps.EdgesBefore {
			shrunk++
		}
		full, err := checkWith(m, levers{noSlice: true})
		if err != nil {
			t.Fatalf("trial %d: unsliced: %v", trial, err)
		}
		sres, err := CheckSymbolic(m, Options{})
		if err != nil {
			t.Fatalf("trial %d: sliced: %v", trial, err)
		}
		if full.Reachable != sres.Reachable {
			t.Fatalf("trial %d: slice changed the verdict: unsliced=%v sliced=%v on\n%s",
				trial, full.Reachable, sres.Reachable, m)
		}
		if !sres.Reachable {
			continue
		}
		reachable++
		confirmWitness(t, trial, m, sres.Witness)
		omittedInputs += confirmWitnessZeroed(t, trial, m, sres.Witness)
	}
	if reachable == 0 {
		t.Error("no random model had a reachable trap; nothing was tested")
	}
	if shrunk == 0 {
		t.Error("the slice never removed anything; the pass is not being exercised")
	}
	if omittedInputs == 0 {
		t.Error("no reachable trial had a sliced-away input; the zeroed replay is not being exercised")
	}
}

// TestReorderedVsStaticAgree: with the reorder trigger lowered far enough
// to fire on toy models, the reordered engine must agree with the static
// one on verdict, step count and witness validity, and its deterministic
// statistics must be reproducible run over run.
func TestReorderedVsStaticAgree(t *testing.T) {
	old := SetReorderMin(64)
	defer SetReorderMin(old)
	rng := rand.New(rand.NewSource(424242))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	reordered, reachable := 0, 0
	for trial := 0; trial < trials; trial++ {
		m := randModel(rng)
		static, err := checkWith(m, levers{noReorder: true})
		if err != nil {
			t.Fatalf("trial %d: static: %v", trial, err)
		}
		dyn, err := CheckSymbolic(m, Options{})
		if err != nil {
			t.Fatalf("trial %d: reordered: %v", trial, err)
		}
		if static.Reachable != dyn.Reachable {
			t.Fatalf("trial %d: reordering changed the verdict: static=%v dynamic=%v on\n%s",
				trial, static.Reachable, dyn.Reachable, m)
		}
		if static.Stats.Steps != dyn.Stats.Steps {
			t.Fatalf("trial %d: reordering changed the step count: %d vs %d",
				trial, static.Stats.Steps, dyn.Stats.Steps)
		}
		reordered += dyn.Stats.Reorders
		// Same query again: every deterministic statistic must reproduce.
		again, err := CheckSymbolic(m, Options{})
		if err != nil {
			t.Fatalf("trial %d: repeat: %v", trial, err)
		}
		if again.Stats.Steps != dyn.Stats.Steps || again.Stats.PeakNodes != dyn.Stats.PeakNodes ||
			again.Stats.MemoryBytes != dyn.Stats.MemoryBytes || again.Stats.Reorders != dyn.Stats.Reorders {
			t.Fatalf("trial %d: reordered stats not reproducible: %+v vs %+v",
				trial, again.Stats, dyn.Stats)
		}
		if dyn.Reachable {
			reachable++
			confirmWitness(t, trial, m, dyn.Witness)
		}
	}
	if reordered == 0 {
		t.Error("no trial triggered a reorder; lower the trigger or grow the models")
	}
	if reachable == 0 {
		t.Error("no random model had a reachable trap; nothing was tested")
	}
}

// TestPooledVsFreshIdentical: a query on a pooled manager — deliberately
// warmed and bloated by mismatched earlier queries — must be bit-for-bit
// identical to one on a fresh manager, deterministic statistics included.
func TestPooledVsFreshIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Dirty the pool with queries of various sizes.
	for i := 0; i < 6; i++ {
		if _, err := CheckSymbolic(randModel(rng), Options{}); err != nil {
			t.Fatalf("warmup %d: %v", i, err)
		}
	}
	for trial := 0; trial < 25; trial++ {
		m := randModel(rng)
		fresh, err := checkWith(m, levers{noPool: true})
		if err != nil {
			t.Fatalf("trial %d: fresh: %v", trial, err)
		}
		pooled, err := CheckSymbolic(m, Options{})
		if err != nil {
			t.Fatalf("trial %d: pooled: %v", trial, err)
		}
		if fresh.Reachable != pooled.Reachable {
			t.Fatalf("trial %d: pooling changed the verdict", trial)
		}
		if fresh.Stats.Steps != pooled.Stats.Steps ||
			fresh.Stats.PeakNodes != pooled.Stats.PeakNodes ||
			fresh.Stats.MemoryBytes != pooled.Stats.MemoryBytes ||
			fresh.Stats.States != pooled.Stats.States ||
			fresh.Stats.StateBits != pooled.Stats.StateBits {
			t.Fatalf("trial %d: pooled stats diverge from fresh:\nfresh  %+v\npooled %+v",
				trial, fresh.Stats, pooled.Stats)
		}
		for id, val := range fresh.Witness {
			if pooled.Witness[id] != val {
				t.Fatalf("trial %d: pooled witness diverges at var %d: %d vs %d",
					trial, id, pooled.Witness[id], val)
			}
		}
	}
}
