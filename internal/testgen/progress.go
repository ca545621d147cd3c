package testgen

// Distributed planning over the generator's journal records: Progress
// folds whatever stage-1/stage-2 records a journal already holds into the
// same coverage decision GenerateCtx would make — without computing
// anything and without touching the journal's resume accounting — so a
// coordinator can enumerate exactly the unit keys still unresolved.
// Quarantine fabricates the degraded record for a unit that repeatedly
// killed its worker, so the run converges to an attributed `unavailable`
// entry instead of wedging.

import (
	"fmt"
	"strings"

	"wcet/internal/fail"
	"wcet/internal/journal"
	"wcet/internal/paths"
)

// Progress is the journal's view of a generation run: which stage-1 and
// stage-2 unit keys are still missing.
type Progress struct {
	// MissingGA lists "ga/<key>" units with no journal record, in target
	// order. Non-empty means stage 1 is the frontier.
	MissingGA []string
	// MissingMC lists "tg/<key>" units needed (the residue after folding
	// stage 1) but not journaled, in target order. Meaningful only when
	// MissingGA is empty.
	MissingMC []string
	// GADone/GATotal and MCDone/MCTotal count journaled vs planned units
	// per stage, for live status views. The MC totals are only enumerable
	// once stage 1 is complete (the residue depends on the coverage fold)
	// and stay 0/0 before that.
	GADone, GATotal int
	MCDone, MCTotal int
	// Quarantined lists unit keys ("ga/…", "tg/…") whose records were
	// fabricated by Quarantine, in target order.
	Quarantined []string
}

// Progress folds the journal's records for targets under conf. It uses
// non-hit-counting reads only, and replays the stage-1 coverage fold so
// the residue it reports is precisely the set GenerateCtx would model
// check.
func (gen *Generator) Progress(j *journal.Journal, targets []paths.Path, conf Config) *Progress {
	p := &Progress{}
	n := len(targets)
	keys := make([]string, n)
	for i, t := range targets {
		keys[i] = t.Key()
	}
	board := newGABoard(keys)
	if !conf.SkipGA {
		p.GATotal = n
		recs := make([]*gaRecord, n)
		for i, k := range keys {
			rec, ok := peek[gaRecord](j, "ga/"+k)
			if !ok {
				p.MissingGA = append(p.MissingGA, "ga/"+k)
				continue
			}
			if rec.Quarantined {
				p.Quarantined = append(p.Quarantined, "ga/"+k)
			}
			recs[i] = rec
		}
		p.GADone = n - len(p.MissingGA)
		if len(p.MissingGA) > 0 {
			return p
		}
		for i, rec := range recs {
			board.deliver(i, gen.unpackGA(rec))
		}
	}
	if conf.SkipMC {
		return p
	}
	for _, k := range keys {
		if _, ok := board.counted[k]; ok {
			continue
		}
		p.MCTotal++
		rec, ok := peek[tgRecord](j, "tg/"+k)
		if !ok {
			p.MissingMC = append(p.MissingMC, "tg/"+k)
			continue
		}
		p.MCDone++
		if rec.Quarantined {
			p.Quarantined = append(p.Quarantined, "tg/"+k)
		}
	}
	return p
}

// Quarantine journals a fabricated degraded record for a generation unit
// key ("ga/…" or "tg/…") that cannot be computed — its computation
// repeatedly killed the worker running it. A quarantined GA search
// contributes nothing to coverage (its target falls through to the model
// checker); a quarantined model-checker unit becomes an Unknown verdict
// with an attributed infrastructure cause, landing the path in the
// degradation ledger. Any other key is refused as invalid input: only
// generation units are journaled, so only they can be leased — and
// dropping anything else (a measured vector, say) would silently lower
// per-unit maxima, which is unsound. flight, when non-nil, is the dead
// worker's flight-recorder dump — stored on the fabricated record so the
// degradation ledger entry carries its last-events post-mortem.
func Quarantine(j *journal.Journal, key, reason string, flight []string) error {
	switch {
	case strings.HasPrefix(key, "ga/"):
		return j.PutJSON(key, &gaRecord{Attempts: []string{reason},
			Quarantined: true, Flight: flight})
	case strings.HasPrefix(key, "tg/"):
		return j.PutJSON(key, &tgRecord{
			Verdict:     int(Unknown),
			CauseKind:   fail.KindInfra,
			CauseMsg:    reason,
			Quarantined: true,
			Flight:      flight,
		})
	default:
		return fmt.Errorf("testgen: unit %q cannot be quarantined: dropping it would be unsound", key)
	}
}

// peek reads one record without counting a resume hit.
func peek[T any](j *journal.Journal, key string) (*T, bool) {
	var r T
	if !j.PeekJSON(key, &r) {
		return nil, false
	}
	return &r, true
}
