package mc

import (
	"context"
	"errors"
	"testing"

	"wcet/internal/bdd"
	"wcet/internal/cc/token"
	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/obs"
	"wcet/internal/tsys"
)

// Tests of the forward engine and of NewQuery's dispatch: acyclic models
// are decided in one topological pass, cyclic ones and ones whose joins
// overlap by reachability, and every outcome must match the reachability
// engine's verdict with a witness that replays explicitly.

// diamondModel is loop-free: two routes join at L1 with disjoint guards
// and different assignments, then the trap tests the joined state. The
// trap is reachable (a = 2, b = 7 reaches x = 9) only through the second
// route's state, which the join multiplexes in.
func diamondModel() *tsys.Model {
	m := &tsys.Model{Name: "diamond"}
	a := m.NewVar("a", 4, false)
	a.Input = true
	b := m.NewVar("b", 4, false)
	b.Input = true
	b.HasRange, b.Lo, b.Hi = true, 0, 9
	x := m.NewVar("x", 5, false)
	x.Init = tsys.InitConst
	l0, l1, l2, l3 := m.NewLoc(), m.NewLoc(), m.NewLoc(), m.NewLoc()
	m.Init, m.Trap = l0, l2
	ra, rb, rx := &tsys.Ref{Var: a.ID}, &tsys.Ref{Var: b.ID}, &tsys.Ref{Var: x.ID}
	three := &tsys.Const{Val: 3}
	m.AddEdge(&tsys.Edge{From: l0, To: l1, Guard: &tsys.Bin{Op: token.GT, X: ra, Y: three},
		Assigns: []tsys.Assign{{Var: x.ID, RHS: &tsys.Const{Val: 1}}}})
	m.AddEdge(&tsys.Edge{From: l0, To: l1, Guard: &tsys.Bin{Op: token.LE, X: ra, Y: three},
		Assigns: []tsys.Assign{{Var: x.ID, RHS: &tsys.Bin{Op: token.PLUS, X: ra, Y: rb}}}})
	m.AddEdge(&tsys.Edge{From: l1, To: l2, Guard: &tsys.Bin{Op: token.EQ, X: rx, Y: &tsys.Const{Val: 9}}})
	m.AddEdge(&tsys.Edge{From: l1, To: l3, Guard: &tsys.Bin{Op: token.NE, X: rx, Y: &tsys.Const{Val: 9}}})
	return m
}

// overlapModel is loop-free but nondeterministic: two unguarded edges into
// L1 assign x differently, so every initial state arrives at L1 twice with
// two states. Only the first arrival (x = 1) reaches the trap, so a join
// that kept one state per location would lose it.
func overlapModel() *tsys.Model {
	m := &tsys.Model{Name: "overlap"}
	a := m.NewVar("a", 3, false)
	a.Input = true
	x := m.NewVar("x", 3, false)
	x.Init = tsys.InitConst
	l0, l1, l2 := m.NewLoc(), m.NewLoc(), m.NewLoc()
	m.Init, m.Trap = l0, l2
	m.AddEdge(&tsys.Edge{From: l0, To: l1, Assigns: []tsys.Assign{{Var: x.ID, RHS: &tsys.Const{Val: 1}}}})
	m.AddEdge(&tsys.Edge{From: l0, To: l1, Assigns: []tsys.Assign{{Var: x.ID, RHS: &tsys.Const{Val: 2}}}})
	m.AddEdge(&tsys.Edge{From: l1, To: l2, Guard: &tsys.Bin{Op: token.LAND,
		X: &tsys.Bin{Op: token.EQ, X: &tsys.Ref{Var: x.ID}, Y: &tsys.Const{Val: 1}},
		Y: &tsys.Bin{Op: token.GT, X: &tsys.Ref{Var: a.ID}, Y: &tsys.Const{Val: 5}}}})
	return m
}

// dispatched runs a NewQuery check under an observer and reports whether
// the forward engine decided it and whether it fell back to reachability.
func dispatched(t *testing.T, ctx context.Context, m *tsys.Model, opt Options) (res *Result, forward, fellBack bool, err error) {
	t.Helper()
	return dispatchedWith(t, ctx, m, opt, levers{})
}

// dispatchedWith is dispatched with the given levers switched off.
func dispatchedWith(t *testing.T, ctx context.Context, m *tsys.Model, opt Options, lv levers) (res *Result, forward, fellBack bool, err error) {
	t.Helper()
	o := obs.New(obs.Config{})
	q := newQuery(m, opt, lv, true)
	defer q.Close()
	res, err = q.CheckCtx(obs.With(ctx, o))
	reg := o.Metrics()
	return res, reg.Value("mc.forward.decided") == 1, reg.Value("mc.forward.fallbacks") == 1, err
}

func TestForwardDecidesAcyclicModel(t *testing.T) {
	for _, lv := range []levers{{}, {noSlice: true}, {noPool: true}} {
		m := diamondModel()
		ref, err := checkWith(m, lv)
		if err != nil {
			t.Fatal(err)
		}
		res, forward, fellBack, err := dispatchedWith(t, context.Background(), m, Options{}, lv)
		if err != nil {
			t.Fatal(err)
		}
		if !forward || fellBack {
			t.Fatalf("%+v: forward=%v fellBack=%v, want the forward engine to decide", lv, forward, fellBack)
		}
		if !res.Reachable || !ref.Reachable {
			t.Fatalf("%+v: forward %v, reachability %v; want both reachable", lv, res.Reachable, ref.Reachable)
		}
		confirmWitness(t, 0, m, res.Witness)
		if got := res.Witness[1]; got > 9 {
			t.Errorf("witness b = %d outside its declared range 0..9", got)
		}
	}
}

func TestForwardProvesInfeasible(t *testing.T) {
	m := diamondModel()
	// x = 9 needs a + b = 9 with a <= 3, so b >= 6: capping b at 5 makes
	// the trap unreachable.
	m.Vars[1].Hi = 5
	res, forward, _, err := dispatched(t, context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := CheckExplicit(m, Options{})
	if !forward || res.Reachable || ref.Reachable {
		t.Fatalf("forward=%v reachable=%v explicit=%v, want a forward infeasibility proof",
			forward, res.Reachable, ref.Reachable)
	}
}

func TestForwardFallsBackOnCycle(t *testing.T) {
	ref, err := CheckSymbolic(counterModel(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, forward, fellBack, err := dispatched(t, context.Background(), counterModel(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if forward || fellBack {
		t.Fatalf("cyclic model: forward=%v fellBack=%v, want reachability from the start", forward, fellBack)
	}
	if res.Reachable != ref.Reachable || res.Stats.Steps != ref.Stats.Steps ||
		res.Stats.PeakNodes != ref.Stats.PeakNodes {
		t.Errorf("cyclic model: %+v, want reachability's %+v", res.Stats, ref.Stats)
	}
}

func TestForwardFallsBackOnOverlappingJoin(t *testing.T) {
	m := overlapModel()
	ref, err := CheckSymbolic(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, forward, fellBack, err := dispatched(t, context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if forward || !fellBack {
		t.Fatalf("overlapping join: forward=%v fellBack=%v, want a fallback", forward, fellBack)
	}
	if !res.Reachable || !ref.Reachable {
		t.Fatalf("overlapping join: reachable %v, reachability %v; want both reachable", res.Reachable, ref.Reachable)
	}
	if res.Stats.Steps != ref.Stats.Steps || res.Stats.PeakNodes != ref.Stats.PeakNodes {
		t.Errorf("fallback stats %+v differ from reachability's %+v", res.Stats, ref.Stats)
	}
	confirmWitness(t, 0, m, res.Witness)
}

func TestForwardNodeBudget(t *testing.T) {
	_, _, _, err := dispatched(t, context.Background(), diamondModel(), Options{MaxNodes: 16})
	if !errors.Is(err, fail.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	var le *bdd.LimitError
	if !errors.As(err, &le) || le.Limit != 16 {
		t.Errorf("budget error must carry the kernel's LimitError, got %v", err)
	}
}

func TestForwardCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := dispatched(t, ctx, diamondModel(), Options{}); !errors.Is(err, fail.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
}

func TestForwardFaultSites(t *testing.T) {
	ctx := faults.With(context.Background(), faults.New(faults.Rule{Site: "mc.check", Index: 0}))
	if _, _, _, err := dispatched(t, ctx, diamondModel(), Options{}); !errors.Is(err, fail.ErrInfrastructure) {
		t.Errorf("mc.check fault: got %v, want attributed infrastructure failure", err)
	}
	ctx = faults.With(context.Background(),
		faults.New(faults.Rule{Site: "mc.step", Index: 2, Err: fail.Budget("", "injected")}))
	_, _, _, err := dispatched(t, ctx, diamondModel(), Options{})
	var fe *fail.Error
	if !errors.Is(err, fail.ErrBudgetExceeded) || !errors.As(err, &fe) || fe.Stage != "mc" {
		t.Errorf("mc.step fault: got %v, want the injected budget error attributed to mc", err)
	}
}

// TestForwardRetryReportsFirstTryStats fails a query mid-pass once and
// retries it: the retry must report exactly the statistics of a query
// that succeeded at once, because canonical reports carry them.
func TestForwardRetryReportsFirstTryStats(t *testing.T) {
	clean, err := CheckCtx(context.Background(), diamondModel(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := faults.With(context.Background(),
		faults.New(faults.Rule{Site: "mc.step", Index: 2, MaxFires: 1}))
	q := NewQuery(diamondModel(), Options{})
	defer q.Close()
	if _, err := q.CheckCtx(ctx); err == nil {
		t.Fatal("first attempt must hit the injected fault")
	}
	res, err := q.CheckCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps != clean.Stats.Steps || res.Stats.PeakNodes != clean.Stats.PeakNodes ||
		res.Stats.MemoryBytes != clean.Stats.MemoryBytes || res.Stats.States != clean.Stats.States {
		t.Errorf("retry stats %+v, want first-try %+v", res.Stats, clean.Stats)
	}
}
