// Frontier planning for distributed runs: given the canonical run journal,
// compute which pipeline stage is the first with unresolved unit keys —
// and exactly which keys — so a coordinator can lease them out to worker
// processes. The frontier is a pure function of (program, options, journal
// records): every read is non-hit-counting, so planning never inflates the
// resumed-unit accounting of the run that eventually assembles the report.
package core

import (
	"fmt"

	"wcet/internal/cc/ast"
	"wcet/internal/cfg"
	"wcet/internal/fail"
	"wcet/internal/partition"
	"wcet/internal/testgen"
)

// Frontier stages, in pipeline order. Only generation units are durable,
// so only they can be leased: the frontier names the first generation
// stage with missing unit keys (a model-checker key is not even
// enumerable until every GA record exists, because the residue depends on
// the coverage fold), and StageDone once both are journaled — measurement
// then runs in process during the report assembly.
const (
	StageGA   = "ga"
	StageMC   = "mc"
	StageDone = "done"
)

// Frontier is the distributed run's current work front.
type Frontier struct {
	// Stage is the first pipeline stage with unresolved units (StageDone
	// when the journal already holds every record the report needs).
	Stage string
	// Keys lists the stage's missing unit keys in deterministic pipeline
	// order (empty for StageDone).
	Keys []string
}

// FingerprintOf exposes the journal-binding fingerprint of an analysis,
// so a coordinator and its workers can verify they agree on the identity
// before sharing records.
func FingerprintOf(file *ast.File, fn *ast.FuncDecl, g *cfg.Graph, opt Options) string {
	opt = opt.withDefaults()
	return fingerprint(file, fn, g, opt, opt.resolvedTestGen())
}

// FrontierOf computes the work frontier of a journaled analysis. It
// requires opt.Journal, binds it to the analysis fingerprint (idempotent —
// a mismatch resets the journal exactly like AnalyzeGraphCtx would), and
// reads records without counting resume hits.
func FrontierOf(file *ast.File, fn *ast.FuncDecl, g *cfg.Graph, opt Options) (*Frontier, error) {
	opt = opt.withDefaults()
	j := opt.Journal
	if j == nil {
		return nil, fmt.Errorf("core: FrontierOf requires Options.Journal")
	}
	tgConf := opt.resolvedTestGen()
	if _, err := j.Bind(fingerprint(file, fn, g, opt, tgConf)); err != nil {
		return nil, fail.Infra("core", err)
	}
	plan, err := partition.PartitionBound(g, opt.Bound)
	if err != nil {
		return nil, err
	}
	targets, _, err := planTargets(g, plan)
	if err != nil {
		return nil, err
	}
	prog := testgen.New(file, fn, g).Progress(j, targets, tgConf)
	switch {
	case len(prog.MissingGA) > 0:
		return &Frontier{Stage: StageGA, Keys: prog.MissingGA}, nil
	case len(prog.MissingMC) > 0:
		return &Frontier{Stage: StageMC, Keys: prog.MissingMC}, nil
	}
	return &Frontier{Stage: StageDone}, nil
}
