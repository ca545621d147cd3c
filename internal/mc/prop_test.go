package mc

import (
	"context"
	"math/rand"
	"testing"

	"wcet/internal/cc/token"
	"wcet/internal/tsys"
)

// Randomized cross-check of the two engines: on small random transition
// systems the symbolic (BDD) engine and the explicit-state engine must
// agree on trap reachability, and every symbolic witness must be confirmed
// by an explicit run started from exactly that witness. This is the
// engine-agreement property test guarding the BDD kernel: any semantic slip
// in the complement-edge canonical form or the packed operation caches
// shows up as a verdict disagreement here.

// randExpr builds a random expression over the model's variables using only
// operators both engines support (no division, no symbolic shifts).
func randExpr(rng *rand.Rand, m *tsys.Model, depth int) tsys.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return &tsys.Ref{Var: tsys.VarID(rng.Intn(len(m.Vars)))}
		}
		return &tsys.Const{Val: int64(rng.Intn(8))}
	}
	ops := []token.Kind{token.PLUS, token.MINUS, token.STAR,
		token.AMP, token.PIPE, token.CARET,
		token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE}
	op := ops[rng.Intn(len(ops))]
	return &tsys.Bin{Op: op,
		X: randExpr(rng, m, depth-1),
		Y: randExpr(rng, m, depth-1)}
}

// randModel builds a small random transition system: two 3-bit inputs, one
// pinned local, 3–5 locations, and 4–8 guarded/assigning edges.
func randModel(rng *rand.Rand) *tsys.Model {
	m := &tsys.Model{Name: "random"}
	for i := 0; i < 2; i++ {
		v := m.NewVar("in", 3, false)
		v.Input = true
	}
	loc := m.NewVar("acc", 3, false)
	loc.Init = tsys.InitConst
	loc.InitVal = int64(rng.Intn(8))

	nlocs := 3 + rng.Intn(3)
	locs := make([]tsys.Loc, nlocs)
	for i := range locs {
		locs[i] = m.NewLoc()
	}
	m.Init = locs[0]
	m.Trap = locs[nlocs-1]

	nedges := 4 + rng.Intn(5)
	for i := 0; i < nedges; i++ {
		e := &tsys.Edge{
			From: locs[rng.Intn(nlocs)],
			To:   locs[rng.Intn(nlocs)],
		}
		if rng.Intn(3) != 0 {
			e.Guard = randExpr(rng, m, 2)
		}
		if rng.Intn(2) == 0 {
			e.Assigns = []tsys.Assign{{
				Var: loc.ID,
				RHS: &tsys.CastE{Bits: 3, Signed: false, X: randExpr(rng, m, 2)},
			}}
		}
		m.AddEdge(e)
	}
	return m
}

// asDAG returns a copy of a random model with every edge pointing from the
// lower location index to the higher one (self-loops move one location
// on), so the location graph is acyclic and the forward engine applies.
func asDAG(m *tsys.Model) *tsys.Model {
	d := m.Clone()
	for _, e := range d.Edges {
		if e.From > e.To {
			e.From, e.To = e.To, e.From
		}
		if e.From == e.To {
			if int(e.To)+1 < d.NLocs {
				e.To++
			} else {
				e.From--
			}
		}
	}
	return d
}

func TestEnginesAgreeOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	agreeReach, forwardDecided, forwardReach := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		m := randModel(rng)
		// Every random model is checked as drawn (usually cyclic) and as a
		// DAG, where NewQuery's forward engine is a third engine to agree.
		for _, model := range []*tsys.Model{m, asDAG(m)} {
			sym, err := CheckSymbolic(model, Options{})
			if err != nil {
				t.Fatalf("trial %d: symbolic: %v", trial, err)
			}
			exp, err := CheckExplicit(model, Options{})
			if err != nil {
				t.Fatalf("trial %d: explicit: %v", trial, err)
			}
			if sym.Reachable != exp.Reachable {
				t.Fatalf("trial %d: engines disagree: symbolic=%v explicit=%v on\n%s",
					trial, sym.Reachable, exp.Reachable, model)
			}
			fwd, forward, _, err := dispatched(t, context.Background(), model, Options{})
			if err != nil {
				t.Fatalf("trial %d: dispatched: %v", trial, err)
			}
			if fwd.Reachable != sym.Reachable {
				t.Fatalf("trial %d: dispatched engine (forward=%v) says %v, symbolic %v on\n%s",
					trial, forward, fwd.Reachable, sym.Reachable, model)
			}
			if forward {
				forwardDecided++
			}
			if !sym.Reachable {
				continue
			}
			agreeReach++
			// Confirm each witness concretely: pin every input to the
			// witness value and the trap must still be explicitly reachable.
			confirmWitness(t, trial, model, sym.Witness)
			confirmWitness(t, trial, model, fwd.Witness)
			if forward {
				forwardReach++
			}
		}
	}
	if agreeReach == 0 {
		t.Error("no random model had a reachable trap; generator too weak to test anything")
	}
	if forwardDecided == 0 || forwardReach == 0 {
		t.Errorf("forward engine decided %d models (%d reachable); generator too weak to test it",
			forwardDecided, forwardReach)
	}
	t.Logf("%d reachable verdicts; forward engine decided %d models, %d reachable",
		agreeReach, forwardDecided, forwardReach)
}
