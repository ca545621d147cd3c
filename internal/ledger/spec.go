package ledger

// Spec is the serializable analysis description a coordinator ships to
// its worker processes. It carries the source text plus every
// deterministic option — explicitly, field by field, because the Options
// tree holds func-typed and pointer fields (GA hooks, observer, cost
// model) that cannot cross a process boundary. SpecFor rejects
// options that set any of those: a distributed run supports exactly the
// options whose identity the journal fingerprint can pin. A reflection
// test keeps this file honest when option structs grow fields.

import (
	"fmt"
	"time"

	"wcet/internal/core"
	"wcet/internal/faults"
	"wcet/internal/ga"
	"wcet/internal/mc"
	"wcet/internal/retry"
	"wcet/internal/sim"
	"wcet/internal/testgen"
)

// Spec describes one analysis, completely and serializably.
type Spec struct {
	// Source is the full C translation unit; FuncName selects the analysed
	// function ("" = first).
	Source   string
	FuncName string

	Bound         int64
	Exhaustive    bool
	MaxExhaustive int
	MCTimeout     time.Duration
	// Workers is the per-process pipeline fan-out each worker uses
	// (0 = one per CPU). Results are worker-count invariant.
	Workers int

	GA struct {
		Pop, MaxGens, Stagnation, Tournament int
		MutRate, CrossRate                   float64
		Seed                                 int64
		MaxEvaluations                       int
	}
	SkipGA, SkipMC bool
	MC             struct {
		MaxSteps, MaxStates, MaxNodes int
		Timeout                       time.Duration
	}
	RetryMaxAttempts int
	RetryBackoffBase int
	MaxInstructions  int64

	// Faults arms deterministic fault injection inside every worker — the
	// chaos suites' lever. Empty for production runs.
	Faults []FaultRule
}

// FaultRule is the serializable form of a faults.Rule (whose Err field is
// an error value and cannot cross a process boundary — injected failures
// surface as generic infrastructure errors).
type FaultRule struct {
	// Site names the injection point (e.g. "testgen.mc"); Index selects
	// one call (-1 = all).
	Site  string
	Index int
	// Mode is "fail", "panic" or "stall".
	Mode string
	// Delay is the stall duration (stall mode only; 0 = the injector's
	// default).
	Delay time.Duration
	// MaxFires bounds how often the rule fires (0 = always) — transient
	// faults heal after MaxFires, exercising the retry path.
	MaxFires int
}

// rules maps the spec's serialized fault rules back to injector rules.
func (s *Spec) rules() []faults.Rule {
	out := make([]faults.Rule, len(s.Faults))
	for i, fr := range s.Faults {
		r := faults.Rule{Site: fr.Site, Index: fr.Index, Delay: fr.Delay, MaxFires: fr.MaxFires}
		switch fr.Mode {
		case "panic":
			r.Mode = faults.Panic
		case "stall":
			r.Mode = faults.Stall
		default:
			r.Mode = faults.Fail
		}
		out[i] = r
	}
	return out
}

// SpecFor builds the spec for analysing src under opt, rejecting options
// a worker process cannot reconstruct: runtime hooks (GA Stop/OnTrace),
// non-serializable state (custom cost model, verdict cache),
// and run-scoped objects (journal, observer) that the coordinator owns.
func SpecFor(src string, opt core.Options) (Spec, error) {
	var zero Spec
	switch {
	case opt.TestGen.GA.Stop != nil || opt.TestGen.GA.OnTrace != nil || opt.TestGen.GA.Obs != nil:
		return zero, fmt.Errorf("ledger: GA hooks (Stop/OnTrace/Obs) cannot cross a process boundary")
	case len(opt.TestGen.Base) != 0:
		return zero, fmt.Errorf("ledger: a base environment binds AST declarations; distributed runs do not support one")
	case opt.SimOptions.Costs != nil:
		return zero, fmt.Errorf("ledger: a custom cost model is not serializable; distributed runs use the default")
	case opt.Cache != nil:
		return zero, fmt.Errorf("ledger: the verdict cache is not supported in distributed mode (the journal is the shared store)")
	case opt.Journal != nil:
		return zero, fmt.Errorf("ledger: set Config.JournalPath, not Options.Journal — the coordinator owns the canonical journal")
	}
	s := Spec{
		Source:           src,
		FuncName:         opt.FuncName,
		Bound:            opt.Bound,
		Exhaustive:       opt.Exhaustive,
		MaxExhaustive:    opt.MaxExhaustive,
		MCTimeout:        opt.MCTimeout,
		Workers:          opt.Workers,
		SkipGA:           opt.TestGen.SkipGA,
		SkipMC:           opt.TestGen.SkipMC,
		RetryMaxAttempts: opt.TestGen.Retry.MaxAttempts,
		RetryBackoffBase: opt.TestGen.Retry.BackoffBase,
		MaxInstructions:  opt.SimOptions.MaxInstructions,
	}
	g := opt.TestGen.GA
	s.GA.Pop, s.GA.MaxGens, s.GA.Stagnation, s.GA.Tournament = g.Pop, g.MaxGens, g.Stagnation, g.Tournament
	s.GA.MutRate, s.GA.CrossRate = g.MutRate, g.CrossRate
	s.GA.Seed, s.GA.MaxEvaluations = g.Seed, g.MaxEvaluations
	m := opt.TestGen.MC
	s.MC.MaxSteps, s.MC.MaxStates, s.MC.MaxNodes = m.MaxSteps, m.MaxStates, m.MaxNodes
	s.MC.Timeout = m.Timeout
	return s, nil
}

// Options reconstructs the analysis options the spec describes. The
// coordinator and every worker call this, so all of them compute the same
// journal fingerprint.
func (s *Spec) Options() core.Options {
	return core.Options{
		FuncName:      s.FuncName,
		Bound:         s.Bound,
		Exhaustive:    s.Exhaustive,
		MaxExhaustive: s.MaxExhaustive,
		MCTimeout:     s.MCTimeout,
		Workers:       s.Workers,
		SimOptions:    sim.Options{MaxInstructions: s.MaxInstructions},
		TestGen: testgen.Config{
			GA: ga.Config{
				Pop: s.GA.Pop, MaxGens: s.GA.MaxGens, Stagnation: s.GA.Stagnation,
				Tournament: s.GA.Tournament, MutRate: s.GA.MutRate, CrossRate: s.GA.CrossRate,
				Seed: s.GA.Seed, MaxEvaluations: s.GA.MaxEvaluations,
			},
			SkipGA: s.SkipGA,
			SkipMC: s.SkipMC,
			MC: mc.Options{
				MaxSteps: s.MC.MaxSteps, MaxStates: s.MC.MaxStates, MaxNodes: s.MC.MaxNodes,
				Timeout: s.MC.Timeout,
			},
			Retry: retry.Policy{MaxAttempts: s.RetryMaxAttempts, BackoffBase: s.RetryBackoffBase},
		},
	}
}
