package ledger

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"wcet/internal/core"
	"wcet/internal/journal"
	"wcet/internal/obs"
	"wcet/internal/testgen"
)

// maxRounds is a hard backstop against a livelocked protocol. Real runs
// terminate far earlier: every round either completes frontier units
// (merged records shrink the frontier) or records fatalities, and
// fatalities are capped per unit by quarantine.
const maxRounds = 1000

// runSeq makes lease ids unique across Run invocations within one
// process. The pid alone is not enough: a second Run from the same
// process would reuse "worker-<pid>-r001-w00", and lease ids must be
// globally unique per logical lease — remote agents treat a start request
// for a known id as a reconnect to the existing worker, so a collision
// would silently replay a previous run's worker instead of spawning one.
var runSeq atomic.Int64

// lease tracks one outstanding worker shard.
type lease struct {
	id         string
	keys       []string
	journal    string // the worker's private journal path
	assignment string
	telemetry  string // the worker's sidecar telemetry path
	handle     Handle
	lastSize   int64
	quiet      int // consecutive polls without journal growth
	settled    bool
}

// Run executes the analysis described by spec as a distributed run:
// coordinator in-process, workers via cfg.Launcher, canonical journal at
// cfg.JournalPath. It is crash-safe on both sides — workers can be killed
// at any instant, and a killed coordinator restarted with the same
// arguments harvests every surviving record and resumes from the
// frontier. See the package comment for the protocol.
func Run(ctx context.Context, spec Spec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.JournalPath == "" {
		return nil, fmt.Errorf("ledger: Config.JournalPath is required (the canonical journal is the ledger)")
	}
	opt := spec.Options()
	file, fn, g, err := core.Frontend(spec.Source, spec.FuncName)
	if err != nil {
		return nil, err
	}
	fp := core.FingerprintOf(file, fn, g, opt)

	// One open handle serves planning, merging and the final assembly: the
	// journal's advisory lock is per open file description, so a second
	// Open of the canonical path — even in this process — would fail.
	j, err := journal.Open(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	if _, err := j.Bind(fp); err != nil {
		return nil, err
	}

	workDir := cfg.WorkDir
	if workDir == "" {
		workDir = filepath.Dir(cfg.JournalPath)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}

	res := &Result{}
	// A predecessor coordinator may have died with worker journals (and
	// even live orphan workers) on disk. Harvest everything that matches
	// our fingerprint before planning: those records are pure, so merging
	// them is exactly as good as having run the workers ourselves. Worker
	// journal names embed the coordinator pid and a per-process run
	// sequence, so our own spawns can never collide with a predecessor's
	// leftovers — not even a predecessor Run in this same process.
	if err := recoverWorkJournals(j, workDir, cfg, res); err != nil {
		return nil, err
	}

	// A launcher that can carry an observer gets the coordinator's:
	// GoLauncher workers publish their unit lifecycle to the same bus (so
	// /events sees them live), the remote launcher lands its remote.*
	// counters in the same registry. Launchers keep their own when set.
	if s, ok := cfg.Launcher.(interface{ SetObs(*obs.Observer) }); ok {
		s.SetObs(cfg.Obs)
	}

	seq := runSeq.Add(1)
	fatal := map[string]int{} // unit key -> worker deaths while leased and incomplete
	// postmortem stashes the flight-recorder dump harvested from a dead
	// worker's telemetry sidecar, per incomplete unit key, so a later
	// quarantine of that unit carries its last-events context.
	postmortem := map[string][]string{}

	for round := 1; ; round++ {
		if round > maxRounds {
			return nil, fmt.Errorf("ledger: no convergence after %d rounds (protocol livelock?)", maxRounds)
		}
		planOpt := opt
		planOpt.Journal = j
		fr, err := core.FrontierOf(file, fn, g, planOpt)
		if err != nil {
			return nil, err
		}
		if fr.Stage == core.StageDone {
			break
		}
		res.Rounds++
		cfg.Obs.Progressf("ledger: round %d: stage %s, %d unit(s) to lease", round, fr.Stage, len(fr.Keys))

		leases, err := startRound(ctx, j, spec, cfg, fp, workDir, seq, round, fr.Keys, fatal, res)
		if err != nil {
			killAll(leases)
			settleAll(j, leases, cfg, fatal, postmortem, res)
			return nil, err
		}
		if err := pollRound(ctx, j, leases, cfg, fatal, postmortem, res); err != nil {
			return nil, err
		}

		// Quarantine pass: a unit that was leased and incomplete across
		// MaxFatalities worker deaths is taken out of circulation with a
		// fabricated degraded record.
		for _, k := range sortedKeys(fatal) {
			if fatal[k] < cfg.MaxFatalities || j.Has(k) {
				continue
			}
			reason := fmt.Sprintf("quarantined: unit killed its worker %d time(s)", fatal[k])
			flight := postmortem[k]
			j.SetSync(true)
			err := testgen.Quarantine(j, k, reason, flight)
			j.SetSync(false)
			if err != nil {
				return nil, fmt.Errorf("ledger: quarantining %q: %w", k, err)
			}
			res.Quarantined = append(res.Quarantined, k)
			cfg.Obs.CountV("ledger.units_quarantined", 1)
			cfg.Obs.Progressf("ledger: %s", reason+" ("+k+")")
			cfg.Obs.Emit(obs.BusEvent{Kind: obs.EvUnitQuarantined, Unit: k, Detail: reason})
			// The .crash file next to the canonical journal carries the dead
			// worker's flight dump — the post-mortem a human reads first.
			if werr := obs.WriteCrash(cfg.JournalPath+".crash", reason+" ("+k+")", flight); werr != nil {
				cfg.Obs.Progressf("ledger: crash dump: %v", werr)
			}
			delete(fatal, k)
		}
	}

	// Assembly: the canonical journal now holds every generation record,
	// so generation is a pure replay and measurement runs here, in process
	// — byte-identical to a single-process run over the same record set.
	opt.Journal = j
	opt.Obs = cfg.Obs
	rep, err := core.AnalyzeGraphCtx(ctx, file, fn, g, opt)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	sort.Strings(res.Quarantined)
	return res, nil
}

// startRound shards the frontier keys and launches one worker per shard.
// Suspect units (at least one prior fatality) are leased solo and first,
// so a repeat death attributes to exactly one unit; clean units are split
// into contiguous chunks across cfg.Workers processes.
func startRound(ctx context.Context, j *journal.Journal, spec Spec, cfg Config, fp, workDir string, seq int64, round int, keys []string, fatal map[string]int, res *Result) ([]*lease, error) {
	var suspects, clean []string
	for _, k := range keys {
		if fatal[k] > 0 {
			suspects = append(suspects, k)
		} else {
			clean = append(clean, k)
		}
	}
	var shards [][]string
	for _, k := range suspects {
		shards = append(shards, []string{k})
	}
	if n := len(clean); n > 0 {
		w := cfg.Workers
		if w > n {
			w = n
		}
		for i := 0; i < w; i++ {
			lo, hi := i*n/w, (i+1)*n/w
			shards = append(shards, clean[lo:hi])
		}
	}

	// Every worker journal starts as a copy of the canonical journal, so
	// prior-stage records replay inside the worker instead of recomputing.
	seed, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		return nil, err
	}

	var leases []*lease
	for i, shard := range shards {
		id := fmt.Sprintf("worker-%d-%d-r%03d-w%02d", os.Getpid(), seq, round, i)
		l := &lease{
			id:         id,
			keys:       shard,
			journal:    filepath.Join(workDir, id+".journal"),
			assignment: filepath.Join(workDir, id+".json"),
			telemetry:  filepath.Join(workDir, id+".telem.json"),
		}
		if err := os.WriteFile(l.journal, seed, 0o644); err != nil {
			return leases, err
		}
		os.Remove(l.telemetry) // no stale heartbeat may vouch for a new worker
		a := &Assignment{ID: id, Fingerprint: fp, Keys: shard, Journal: l.journal,
			Telemetry:   l.telemetry,
			TelemetryMS: int(cfg.TelemetryInterval / time.Millisecond),
			Verbose:     cfg.WorkerVerbose,
			Spec:        spec}
		if err := WriteAssignment(l.assignment, a); err != nil {
			return leases, err
		}
		h, err := cfg.Launcher.Start(ctx, l.assignment)
		if err != nil {
			return leases, err
		}
		l.handle = h
		l.lastSize = int64(len(seed))
		leases = append(leases, l)
		res.Spawned++
		cfg.Obs.CountV("ledger.workers_spawned", 1)
		cfg.Obs.CountV("ledger.leases_granted", int64(len(shard)))
		cfg.Obs.Emit(obs.BusEvent{Kind: obs.EvWorkerSpawned, Worker: id,
			Detail: fmt.Sprintf("units=%d round=%d", len(shard), round)})
		for _, k := range shard {
			cfg.Obs.Emit(obs.BusEvent{Kind: obs.EvUnitLeased, Unit: k, Worker: id})
		}
	}
	return leases, nil
}

// pollRound watches the round's leases until every worker has exited and
// been settled. The lease clock is logical: a worker whose journal file
// does not grow for LeaseTicks consecutive polls is presumed wedged and
// killed; the kill surfaces as an ordinary death at the next poll.
func pollRound(ctx context.Context, j *journal.Journal, leases []*lease, cfg Config, fatal map[string]int, postmortem map[string][]string, res *Result) error {
	live := len(leases)
	for live > 0 {
		select {
		case <-ctx.Done():
			killAll(leases)
			settleAll(j, leases, cfg, fatal, postmortem, res)
			return ctx.Err()
		case <-time.After(cfg.PollInterval):
		}
		for _, l := range leases {
			if l.settled {
				continue
			}
			if done, werr := l.handle.Done(); done {
				settle(j, l, werr, cfg, fatal, postmortem, res)
				live--
				continue
			}
			if size := fileSize(l.journal); size != l.lastSize {
				l.lastSize, l.quiet = size, 0
			} else if l.quiet++; l.quiet >= cfg.LeaseTicks {
				cfg.Obs.Progressf("ledger: lease %s expired (%d quiet polls), killing worker", l.id, l.quiet)
				l.handle.Kill()
				l.quiet = 0 // await the exit; Kill is idempotent
			}
			// Secondary liveness: a worker that has written telemetry at
			// least once but then let the sidecar go stale past
			// HeartbeatTimeout is dead or wedged enough to kill early. This
			// only ever *shortens* a lease — the journal-growth clock above
			// stays the hard deadline, so a worker with no telemetry (or a
			// wedged one whose heartbeat goroutine still ticks) is still
			// bounded by LeaseTicks.
			if fi, err := os.Stat(l.telemetry); err == nil && time.Since(fi.ModTime()) > cfg.HeartbeatTimeout {
				cfg.Obs.Progressf("ledger: worker %s heartbeat lost (telemetry %s stale), killing worker",
					l.id, time.Since(fi.ModTime()).Round(time.Millisecond))
				l.handle.Kill()
			}
		}
	}
	return nil
}

// settle harvests one exited worker: merge every owned record the journal
// holds (up to the last intact frame), then account any owned unit still
// missing from the canonical journal as a fatality against that unit —
// whether the worker crashed, was killed, stalled out its lease, or even
// exited "cleanly" without finishing (that last case would otherwise
// livelock the round loop).
func settle(j *journal.Journal, l *lease, werr error, cfg Config, fatal map[string]int, postmortem map[string][]string, res *Result) {
	l.settled = true
	merged, err := Merge(j, l.journal, l.keys)
	if err != nil {
		cfg.Obs.Progressf("ledger: harvest %s: %v", l.id, err)
	}
	cfg.Obs.CountV("ledger.merged_records", int64(merged))
	// Harvest the sidecar before cleanup: a dead worker's last telemetry
	// snapshot carries its flight recorder — the only post-mortem that
	// survives a SIGKILL.
	var flight []string
	if telem, err := obs.ReadTelemetry(l.telemetry); err == nil && len(telem.Flight) > 0 {
		flight = telem.Flight
	}
	var incomplete []string
	for _, k := range l.keys {
		if !j.Has(k) {
			incomplete = append(incomplete, k)
		}
	}
	if len(incomplete) > 0 {
		for _, k := range incomplete {
			fatal[k]++
			if flight != nil {
				postmortem[k] = append([]string{fmt.Sprintf("worker %s died: %v", l.id, werr)}, flight...)
			}
		}
		res.Reclaimed += len(incomplete)
		cfg.Obs.CountV("ledger.leases_reclaimed", int64(len(incomplete)))
		cfg.Obs.Progressf("ledger: %s died (%v) with %d unit(s) incomplete; reclaimed",
			l.id, werr, len(incomplete))
	}
	cfg.Obs.Emit(obs.BusEvent{Kind: obs.EvWorkerExited, Worker: l.id,
		Detail: fmt.Sprintf("merged=%d incomplete=%d err=%v", merged, len(incomplete), werr)})
	os.Remove(l.journal)
	os.Remove(l.assignment)
	os.Remove(l.telemetry)
}

func killAll(leases []*lease) {
	for _, l := range leases {
		if !l.settled && l.handle != nil {
			l.handle.Kill()
		}
	}
}

// settleAll drains every unsettled lease on the abort path, waiting for
// each worker to actually exit so its journal tail is final.
func settleAll(j *journal.Journal, leases []*lease, cfg Config, fatal map[string]int, postmortem map[string][]string, res *Result) {
	for _, l := range leases {
		if l.settled || l.handle == nil {
			continue
		}
		for {
			if done, werr := l.handle.Done(); done {
				settle(j, l, werr, cfg, fatal, postmortem, res)
				break
			}
			time.Sleep(cfg.PollInterval)
		}
	}
}

// recoverWorkJournals harvests worker journals left behind by a dead
// coordinator: every record in a fingerprint-matching worker journal is
// merged first-write-wins, then the file (and its assignment) is removed.
// Orphan workers may still be appending to an unlinked file; that is
// harmless — their records are pure duplicates of work the new run will
// redo or has already merged, and their journal names embed the dead
// coordinator's pid so they can never collide with this run's spawns.
func recoverWorkJournals(j *journal.Journal, workDir string, cfg Config, res *Result) error {
	paths, err := filepath.Glob(filepath.Join(workDir, "worker-*.journal"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	want, _ := j.Fingerprint()
	for _, p := range paths {
		records, fp, err := journal.ReadFile(p)
		if err == nil && fp == want {
			keys := make([]string, 0, len(records))
			for k := range records {
				keys = append(keys, k)
			}
			merged, err := Merge(j, p, keys)
			if err != nil {
				return err
			}
			if merged > 0 {
				cfg.Obs.CountV("ledger.merged_records", int64(merged))
				cfg.Obs.Progressf("ledger: recovered %d record(s) from %s", merged, filepath.Base(p))
			}
		}
		os.Remove(p)
		os.Remove(strings.TrimSuffix(p, ".journal") + ".json")
		os.Remove(strings.TrimSuffix(p, ".journal") + ".telem.json")
	}
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return fi.Size()
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
