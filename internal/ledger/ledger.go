// Package ledger is the fault-tolerant distributed execution layer: a
// coordinator/worker protocol over the run-journal format in which the
// journal is promoted from a crash-resume log to a multi-process work
// ledger.
//
// # Protocol
//
// The coordinator owns the canonical run journal (exclusively — the
// journal's advisory file lock makes a second writer impossible). Each
// round it computes the pipeline's work frontier (core.FrontierOf): the
// first stage with unresolved unit keys — GA searches ("ga"), then
// model-checker verdicts ("mc") — exactly the keys the stages journal.
// It shards those keys across worker processes, seeding each worker's
// private journal with a copy of the canonical records so prior stages
// replay instead of recomputing, and hands each shard out under a lease.
// Workers run the ordinary analysis pipeline restricted to their owned
// keys (journal.Scope) and exit when every owned unit has a durable
// record. The coordinator merges completed records back into the
// canonical journal — first write wins, fsync on — and iterates until the
// frontier is empty, then assembles the report in process: generation
// replays from the canonical journal, measurement runs on the simulator.
// Only generation units are journaled — a simulator replay costs less
// than the append that would record it — so a run whose workers all
// survive finishes in at most two rounds.
//
// # Determinism
//
// The final report is byte-identical to a single-process run by
// construction, not by luck: every journaled unit is a pure function of
// (program, options fingerprint, unit key) — scoped workers disable the
// two schedule-dependent shortcuts (the GA skip fast path and the
// done-snapshot coverage filter) so even speculative GA outcomes are pure
// — and the pipeline's folds (coverage board, measurement maxima) are
// order-insensitive. Merging is therefore idempotent and commutative:
// duplicated units, shuffled merge orders and repeated crashes converge
// to the same record set, and the assembly replays that set exactly as a
// resumed single-process run would.
//
// # Fault tolerance
//
// Leases carry a logical deadline measured in coordinator polls with no
// durable progress (worker journal growth). A worker that crashes, is
// SIGKILLed, stalls, or tears its final frame mid-append has its journal
// harvested up to the last intact record and its incomplete units
// reclaimed and reassigned — re-computation is safe because records are
// pure, and in-worker transient retries stay deterministic via
// SeedForAttempt and the retry taxonomy (budget and infeasibility
// verdicts journal as results, so they are never re-attempted). Every
// worker death marks its incomplete units suspect; suspects are re-leased
// solo so a repeat death attributes unambiguously, and a unit that kills
// its worker Config.MaxFatalities times is quarantined: it gets a
// fabricated degraded record (testgen.Quarantine) that lands the path in
// the report's degradation ledger as unavailable. The coordinator itself is
// crash-safe: killing and restarting it re-opens the canonical journal,
// harvests any leftover worker journals (fingerprint-checked), and
// resumes from the frontier exactly like a single-process -resume.
package ledger

import (
	"time"

	"wcet/internal/core"
	"wcet/internal/obs"
)

// Config tunes a distributed run. The zero value is usable: 4 workers,
// in-process launcher, 25ms polls, leases of 400 quiet polls, quarantine
// after 2 fatalities.
type Config struct {
	// JournalPath is the canonical run journal (required). The coordinator
	// holds its file lock for the whole run.
	JournalPath string
	// Workers is the number of worker processes leased per round
	// (default 4). Suspect units are re-leased solo on top of this.
	Workers int
	// Launcher starts workers. Default: a GoLauncher (workers as in-process
	// goroutines — cheap, but kill is cooperative cancellation). Use
	// ProcLauncher for real process isolation and SIGKILL semantics.
	Launcher Launcher
	// PollInterval is the coordinator's lease clock tick (default 25ms).
	PollInterval time.Duration
	// LeaseTicks is the lease's logical deadline: a worker whose journal
	// file does not grow for this many consecutive polls is presumed
	// crashed, stalled or wedged; it is killed and its incomplete units
	// reclaimed (default 400 — 10s at the default poll interval).
	LeaseTicks int
	// MaxFatalities quarantines a unit after this many worker deaths with
	// the unit leased and incomplete (default 2: a unit that kills its
	// worker twice is taken out of circulation).
	MaxFatalities int
	// WorkDir holds per-worker journals and assignment files (default:
	// the canonical journal's directory).
	WorkDir string
	// TelemetryInterval is how often each worker rewrites its sidecar
	// telemetry file (default 100ms). The sidecar is volatile fleet
	// telemetry: per-worker progress for /status aggregation, a registry
	// snapshot, and the flight recorder harvested as the post-mortem when
	// the worker dies.
	TelemetryInterval time.Duration
	// HeartbeatTimeout is the secondary liveness signal: once a worker's
	// telemetry sidecar has been seen, a sidecar older than this is
	// treated as a dead heartbeat and the worker is killed without
	// waiting out the journal-growth lease (default 2s, floored at 4×
	// TelemetryInterval). Journal growth remains the hard lease deadline —
	// a wedged worker whose telemetry goroutine still ticks is caught by
	// LeaseTicks, never outlived by its heartbeat.
	HeartbeatTimeout time.Duration
	// WorkerVerbose forwards the coordinator's verbosity to workers: their
	// progress streams go to stderr, prefixed with the worker id.
	WorkerVerbose bool
	// Obs receives the coordinator's observability stream (volatile
	// counters: spawns, leases, reclaims, quarantines) and is threaded
	// into the in-process report assembly. nil disables observation.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Launcher == nil {
		c.Launcher = &GoLauncher{}
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
	if c.LeaseTicks <= 0 {
		c.LeaseTicks = 400
	}
	if c.MaxFatalities <= 0 {
		c.MaxFatalities = 2
	}
	if c.TelemetryInterval <= 0 {
		c.TelemetryInterval = 100 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
	if min := 4 * c.TelemetryInterval; c.HeartbeatTimeout < min {
		c.HeartbeatTimeout = min
	}
	return c
}

// Result is a distributed run's outcome.
type Result struct {
	// Report is the assembled analysis report, byte-identical
	// (Report.WriteCanonical) to a single-process run's — unless units
	// were quarantined, in which case it matches a single-process run
	// whose same units degraded.
	Report *core.Report
	// Quarantined lists the unit keys recorded as unavailable after
	// repeated worker deaths, sorted (empty for healthy runs).
	Quarantined []string
	// Rounds counts frontier rounds that leased work; Spawned counts
	// worker launches; Reclaimed counts lease reclamations of incomplete
	// units (kills, crashes and stalls included).
	Rounds    int
	Spawned   int
	Reclaimed int
}
