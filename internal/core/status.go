// Live status computation: the read path behind the /status endpoint.
// Unlike FrontierOf (which binds — and may reset — the journal it plans
// against), status is computed from a lock-free ReadFile snapshot wrapped
// in a read-only journal.Memory view, so a poller can watch a run whose
// journal flock is held by the coordinator or a worker. The deterministic
// half of the snapshot is a pure function of (program, options, journal
// records): two pollers reading the same bytes get the same status.
package core

import (
	"errors"
	"os"

	"wcet/internal/cc/ast"
	"wcet/internal/cfg"
	"wcet/internal/journal"
	"wcet/internal/obs"
	"wcet/internal/partition"
	"wcet/internal/testgen"
)

// StatusFromRecords computes the deterministic status of a journaled run
// from a record snapshot (journal.ReadFile output). fp is the snapshot's
// fingerprint: a mismatch against the analysis identity reports stage
// "pending" (the journal belongs to another identity, or the run has not
// bound it yet) rather than mixing foreign records into the counts.
func StatusFromRecords(file *ast.File, fn *ast.FuncDecl, g *cfg.Graph, opt Options, records map[string][]byte, fp string) (*obs.Status, error) {
	opt = opt.withDefaults()
	tgConf := opt.resolvedTestGen()
	want := fingerprint(file, fn, g, opt, tgConf)
	st := &obs.Status{}
	st.Deterministic.Fingerprint = want
	if fp != want {
		st.Deterministic.Stage = "pending"
		return st, nil
	}
	j := journal.Memory(records)
	plan, err := partition.PartitionBound(g, opt.Bound)
	if err != nil {
		return nil, err
	}
	targets, _, err := planTargets(g, plan)
	if err != nil {
		return nil, err
	}
	gen := testgen.New(file, fn, g)
	prog := gen.Progress(j, targets, tgConf)
	st.Deterministic.Quarantined = prog.Quarantined

	addStage := func(stage string, done, total int) {
		st.Deterministic.Stages = append(st.Deterministic.Stages,
			obs.StageStatus{Stage: stage, Done: done, Total: total})
	}
	if !tgConf.SkipGA {
		addStage(StageGA, prog.GADone, prog.GATotal)
	}
	if len(prog.MissingGA) > 0 {
		st.Deterministic.Stage = StageGA
		return st, nil
	}
	if !tgConf.SkipMC {
		addStage(StageMC, prog.MCDone, prog.MCTotal)
	}
	if len(prog.MissingMC) > 0 {
		st.Deterministic.Stage = StageMC
		return st, nil
	}
	st.Deterministic.Stage = StageDone
	return st, nil
}

// JournalStatusFunc builds the /status closure for one analysis: it runs
// the front end once, then each call snapshots the journal file (without
// locking it) and computes StatusFromRecords. A journal that does not
// exist yet reports stage "pending".
func JournalStatusFunc(src string, opt Options, journalPath string) (func() (*obs.Status, error), error) {
	file, fn, g, err := Frontend(src, opt.FuncName)
	if err != nil {
		return nil, err
	}
	return func() (*obs.Status, error) {
		records, fp, err := journal.ReadFile(journalPath)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return StatusFromRecords(file, fn, g, opt, map[string][]byte{}, "")
			}
			return nil, err
		}
		return StatusFromRecords(file, fn, g, opt, records, fp)
	}, nil
}
