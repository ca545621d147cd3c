package testgen

// Journal codec for the hybrid generator: every finished unit of stage-1
// (one GA search outcome) and stage-2 (one residue verdict) work is stored
// in the run journal under a content-addressed key, so an interrupted run
// resumes by replaying stored outcomes instead of recomputing them.
//
// Environments are serialized as name → value pairs over every variable
// they bind — not just inputs. GA fitness evaluation runs the interpreter
// on the candidate environment in place, so a recorded environment is a
// post-execution state that also binds locals and written globals; a
// replayed run must reproduce those bindings exactly for the resumed
// report to stay byte-identical. Names, not pointers, cross the process
// boundary; on replay a resolver maps names back to the function's
// declarations (globals, parameters and body-local declarations, with the
// innermost declaration winning a name).
//
// Model-checker stats are journaled without their Duration: wall clock is
// the one volatile field, and replaying zero there keeps every
// deterministic report field byte-identical while never leaking one run's
// timing into another.

import (
	"wcet/internal/cc/ast"
	"wcet/internal/interp"
	"wcet/internal/mc"
	"wcet/internal/obs"
)

// envRecord is a serialized environment: variable name → value.
type envRecord map[string]int64

func (gen *Generator) packEnv(env interp.Env) envRecord {
	if env == nil {
		return nil
	}
	out := envRecord{}
	for d, v := range env {
		out[d.Name] = v
	}
	return out
}

// declByName builds the replay resolver: every declaration visible to the
// analysed function, keyed by name. Function-local declarations are walked
// after the globals, so an inner declaration wins a shared name.
func (gen *Generator) declByName() map[string]*ast.VarDecl {
	m := map[string]*ast.VarDecl{}
	for _, g := range gen.File.Globals {
		m[g.Name] = g
	}
	ast.Walk(gen.Fn, func(n ast.Node) bool {
		if d, ok := n.(*ast.VarDecl); ok {
			m[d.Name] = d
		}
		return true
	})
	return m
}

func unpackEnv(rec envRecord, decls map[string]*ast.VarDecl) interp.Env {
	if rec == nil {
		return nil
	}
	env := interp.Env{}
	for name, v := range rec {
		if d := decls[name]; d != nil {
			env[d] = v
		}
	}
	return env
}

// gaRecord is one journaled stage-1 search outcome ("ga/<path key>"). A
// skipped search journals the zero record — replaying it reproduces the
// skip's (empty) contribution to the coverage fold.
type gaRecord struct {
	Found    bool
	Env      envRecord
	Evals    int
	Cover    map[string]envRecord
	Attempts []string
	// Quarantined marks a record fabricated by Quarantine rather than
	// computed; Flight carries the dead worker's last-events post-mortem.
	// Both are volatile diagnostics: they never reach a canonical export.
	Quarantined bool     `json:",omitempty"`
	Flight      []string `json:",omitempty"`
}

func (gen *Generator) packGA(o *gaOutcome) *gaRecord {
	r := &gaRecord{Found: o.found, Env: gen.packEnv(o.env), Evals: o.evals, Attempts: o.attempts}
	if len(o.cover) > 0 {
		r.Cover = map[string]envRecord{}
		for k, env := range o.cover {
			r.Cover[k] = gen.packEnv(env)
		}
	}
	return r
}

func (gen *Generator) unpackGA(r *gaRecord) *gaOutcome {
	decls := gen.declByName()
	o := &gaOutcome{found: r.Found, env: unpackEnv(r.Env, decls),
		evals: r.Evals, attempts: r.Attempts, cover: map[string]interp.Env{}}
	for k, rec := range r.Cover {
		o.cover[k] = unpackEnv(rec, decls)
	}
	return o
}

// tgRecord is one journaled stage-2 verdict ("tg/<path key>"). The cause of
// an Unknown verdict crosses the boundary as (kind label, rendered string)
// and is reconstructed with fail.Replayed, so a resumed report renders the
// identical degradation ledger. Cancelled work is never journaled — a
// withdrawn request is not a verdict.
type tgRecord struct {
	Verdict     int
	Env         envRecord
	Steps       int
	PeakNodes   int
	StateBits   int
	MemoryBytes int64
	States      float64
	CauseKind   string
	CauseMsg    string
	Attempts    []string
	// Quarantined marks a record fabricated by Quarantine rather than
	// computed; Flight carries the dead worker's last-events post-mortem.
	// Both are volatile diagnostics: they never reach a canonical export.
	Quarantined bool     `json:",omitempty"`
	Flight      []string `json:",omitempty"`
}

func packTG(gen *Generator, pr *PathResult, causeKind, causeMsg string) *tgRecord {
	return &tgRecord{
		Verdict:     int(pr.Verdict),
		Env:         gen.packEnv(pr.Env),
		Steps:       pr.MCStats.Steps,
		PeakNodes:   pr.MCStats.PeakNodes,
		StateBits:   pr.MCStats.StateBits,
		MemoryBytes: pr.MCStats.MemoryBytes,
		States:      pr.MCStats.States,
		CauseKind:   causeKind,
		CauseMsg:    causeMsg,
		Attempts:    pr.Attempts,
	}
}

func (r *tgRecord) stats() mc.Stats {
	return mc.Stats{Steps: r.Steps, PeakNodes: r.PeakNodes, StateBits: r.StateBits,
		MemoryBytes: r.MemoryBytes, States: r.States}
}

func (*gaRecord) event(unit, detail string) obs.BusEvent {
	return obs.BusEvent{Kind: obs.EvUnitCompleted, Stage: "ga", Unit: unit, Detail: detail}
}

func (r *tgRecord) event(unit, detail string) obs.BusEvent {
	return obs.BusEvent{Kind: obs.EvVerdict, Stage: "mc", Unit: unit,
		Verdict: Verdict(r.Verdict).String(), Detail: detail}
}
