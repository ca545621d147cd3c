// Package wcet is a hybrid measurement-based worst-case execution time
// (WCET) analyser for a C subset, reproducing Wenzel, Rieder, Kirner and
// Puschner, "Automatic Timing Model Generation by CFG Partitioning and
// Model Checking" (DATE 2005).
//
// The analysis partitions a function's control flow graph into program
// segments along the abstract syntax tree, generates test data that forces
// execution of every segment path — first with a genetic algorithm, then
// with a BDD-based model checker that also proves infeasibility — measures
// the forced runs on a cycle-accurate HCS12-flavoured simulator, and
// combines the per-segment maxima into a WCET bound with a timing schema.
//
// Quick start:
//
//	report, err := wcet.Analyze(src, wcet.Options{Bound: 8, Exhaustive: true})
//	if err != nil { ... }
//	fmt.Println(report.WCET, report.ExhaustiveWCET)
//
// The pipeline's parallel stages (GA searches, model-checker calls,
// measurement replays) fan out over Options.Workers goroutines — one per
// CPU by default, 1 for a serial run — and merge deterministically: the
// Report is identical for every worker count.
//
// # Budgets, cancellation and degraded results
//
// AnalyzeCtx runs the same pipeline under a context: cancelling it (or
// letting its deadline expire) unwinds every stage cooperatively and
// returns an error matching ErrCancelled or ErrBudgetExceeded
// (errors.Is). Per-stage budgets — model-checker step, state and BDD-node
// caps plus a per-call timeout, and a GA evaluation cap — never abort the
// analysis on their own: a path whose generation ran out of budget is
// recorded in the Report's degradation ledger, and Report.Soundness states
// whether the bound is still exact, safe-but-degraded (an exhaustive input
// sweep restored coverage), or unavailable. See Report.Summary.
//
// # Distributed runs
//
// Distribute shards a journaled analysis across worker processes: a
// coordinator computes the unresolved work frontier, leases unit keys to
// workers, harvests their journals (first write wins) and assembles the
// final report from the canonical journal — byte-identical to a
// single-process run by construction. Workers can be SIGKILLed at any
// instant and the coordinator itself restarted mid-run; units that
// repeatedly kill their worker are quarantined into the degradation
// ledger instead of hanging the run. See NewLedgerSpec, Distribute and
// LedgerWorker.
//
// The building blocks (partitioning sweeps, the model checker, the
// optimisation passes, the simulator) are exposed through the internal
// packages for the example programs and benchmarks in this repository; the
// stable external surface is this package.
package wcet

import (
	"context"

	"wcet/internal/core"
	"wcet/internal/fail"
	"wcet/internal/ga"
	"wcet/internal/journal"
	"wcet/internal/ledger"
	"wcet/internal/mc"
	"wcet/internal/obs"
	"wcet/internal/obs/serve"
	"wcet/internal/remote"
	"wcet/internal/testgen"
	"wcet/internal/vcache"
)

// Options configure an analysis; the zero value uses sensible defaults
// (path bound 8, hybrid generation with model-checker fallback).
type Options = core.Options

// Report is the complete analysis result.
type Report = core.Report

// Soundness classifies how much trust the computed bound deserves.
type Soundness = core.Soundness

// Soundness levels.
const (
	BoundExact        = core.BoundExact
	BoundDegradedSafe = core.BoundDegradedSafe
	BoundUnavailable  = core.BoundUnavailable
)

// Degradation is one entry of the report's degradation ledger.
type Degradation = core.Degradation

// GAConfig tunes the heuristic test-data stage.
type GAConfig = ga.Config

// TestGenConfig tunes the hybrid test-data generator.
type TestGenConfig = testgen.Config

// MCOptions bound individual model-checker runs: step, state and BDD-node
// budgets and a wall clock. They are the model checker's only settings —
// per-trap slicing, the Section 3.2 optimisations, dynamic reordering and
// manager pooling always run.
type MCOptions = mc.Options

// Observer is the observability session threaded through an analysis via
// Options.Obs: stage spans, a metrics registry with deterministic
// aggregation, and progress output. nil disables observation (the
// default); see NewObserver.
type Observer = obs.Observer

// ObserverConfig configures NewObserver.
type ObserverConfig = obs.Config

// NewObserver builds an enabled observation session. After the analysis,
// export with Observer.Trace().WriteChrome (chrome://tracing format),
// Observer.Metrics().WriteSnapshotAll (full metrics JSON), or the
// canonical variants whose bytes are identical for every Workers value.
func NewObserver(c ObserverConfig) *Observer { return obs.New(c) }

// BusEvent is one structured event on the observer's live event bus:
// stage transitions, unit lifecycle (leased/completed/retried/
// quarantined), model-checker verdicts, degradations, worker spawns and
// exits, and progress lines. Subscribe via Observer.Subscribe; slow
// subscribers drop oldest events rather than stalling the analysis.
type BusEvent = obs.BusEvent

// Status is the live snapshot served at /status: a deterministic half
// (stage frontier and per-stage done/total counts, a pure function of the
// journal's records) and a volatile half (elapsed time, bus counters,
// per-worker fleet telemetry).
type Status = obs.Status

// WorkerStatus is one worker's row in a distributed run's fleet
// telemetry.
type WorkerStatus = obs.WorkerStatus

// StatusConfig wires a status server to one observed run.
type StatusConfig = serve.Config

// StatusServer is a running live-status HTTP server: /status (JSON),
// /metrics (Prometheus text), /events (SSE), /debug/pprof.
type StatusServer = serve.Server

// ServeStatus starts the live-status HTTP server on addr (use
// "127.0.0.1:0" for an ephemeral port). Serving is read-only and never
// perturbs the analysis: canonical reports are byte-identical with and
// without a server attached.
func ServeStatus(addr string, c StatusConfig) (*StatusServer, error) { return serve.Start(addr, c) }

// JournalStatus builds the deterministic /status closure for one
// journaled analysis: each call snapshots the journal file lock-free
// (the run may hold its flock) and recomputes stage progress from the
// records. Use it as StatusConfig.Status.
func JournalStatus(src string, opt Options, journalPath string) (func() (*Status, error), error) {
	return core.JournalStatusFunc(src, opt, journalPath)
}

// FleetStatus reads the per-worker telemetry sidecars of a distributed
// run from its work directory (by default the canonical journal's
// directory). Use it as StatusConfig.Fleet.
func FleetStatus(workDir string) []WorkerStatus { return ledger.ReadFleet(workDir) }

// WriteCrashFile dumps a flight-recorder snapshot (Observer.FlightDump)
// to path atomically — the post-mortem written next to the journal when
// a run panics or a distributed unit is quarantined.
func WriteCrashFile(path, reason string, flight []string) error {
	return obs.WriteCrash(path, reason, flight)
}

// Journal is the crash-safe run journal threaded through an analysis via
// Options.Journal: every completed generation unit (GA search,
// model-checker verdict) is appended durably before the pipeline moves on,
// so a killed run resumed against the same journal replays finished units,
// re-measures, and converges to a report byte-identical to an
// uninterrupted run — at any worker count. nil disables journaling (the
// default); see OpenJournal.
type Journal = journal.Journal

// OpenJournal opens (or creates) the run journal at path, recovering
// cleanly from a torn tail left by a crash mid-append. Close it after the
// analysis; to discard a previous run's records instead of resuming them,
// call Reset before analysing.
func OpenJournal(path string) (*Journal, error) { return journal.Open(path) }

// Cache is the persistent verdict store threaded through an analysis via
// Options.Cache: per-path model-checker verdicts and GA outcomes are
// memoized on disk under content-addressed keys, so re-analysing a program
// — or an edited version of it — replays every verdict whose underlying
// query the edit left untouched instead of re-proving it. The model-checker
// keys digest the optimized, per-trap-sliced transition system, so an edit
// in one CFG region leaves the other regions' verdicts servable from cache.
// A warm run's Report is byte-identical (Report.WriteCanonical) to a clean
// run's; Report.CachedUnits says how much was replayed. nil disables
// caching (the default); see OpenCache.
type Cache = vcache.Store

// OpenCache opens (or creates) the verdict store rooted at dir. The store
// is safe for concurrent use and survives crashes (records are written
// atomically); a store written by an incompatible format version is reset
// to empty. Share one directory across runs — and across programs — to make
// every analysis incremental.
func OpenCache(dir string) (*Cache, error) { return vcache.Open(dir) }

// Verdict classifies per-path generation outcomes.
type Verdict = testgen.Verdict

// Per-path verdicts.
const (
	FoundByHeuristic    = testgen.FoundByHeuristic
	FoundByModelChecker = testgen.FoundByModelChecker
	Infeasible          = testgen.Infeasible
	Unknown             = testgen.Unknown
)

// Structured failure kinds: every pipeline error matches exactly one of
// these under errors.Is, with stage and path attribution in its message.
var (
	// ErrBudgetExceeded: a stage ran out of its wall-clock, step, state,
	// node or evaluation budget.
	ErrBudgetExceeded = fail.ErrBudgetExceeded
	// ErrCancelled: the caller's context was cancelled.
	ErrCancelled = fail.ErrCancelled
	// ErrWorkerPanic: a pipeline worker panicked; the error carries the
	// recovered value and stack, isolated instead of crashing the process.
	ErrWorkerPanic = fail.ErrWorkerPanic
	// ErrInfrastructure: the pipeline itself failed (simulator fault,
	// inconsistent model) — distinct from running out of budget.
	ErrInfrastructure = fail.ErrInfrastructure
)

// Interrupted reports whether err is a budget or cancellation stop rather
// than an infrastructure failure.
func Interrupted(err error) bool { return fail.Interrupted(err) }

// LedgerSpec is the serializable description of one analysis that a
// distributed coordinator ships to its worker processes — the source text
// plus every deterministic option. Build one with NewLedgerSpec.
type LedgerSpec = ledger.Spec

// LedgerConfig tunes a distributed run: canonical journal path, worker
// count, how workers are launched, and the lease/quarantine thresholds.
// The zero value (plus JournalPath) is usable.
type LedgerConfig = ledger.Config

// LedgerResult is a distributed run's outcome: the assembled report, the
// quarantined unit keys, and fault-tolerance counters.
type LedgerResult = ledger.Result

// LedgerLauncher starts distributed workers on behalf of the coordinator;
// see LedgerConfig.Launcher. The default launches workers as goroutines
// inside the coordinator process.
type LedgerLauncher = ledger.Launcher

// ProcessLauncher returns a launcher that starts each worker as a real OS
// process running argv plus the assignment-file path — crash isolation
// with genuine SIGKILL semantics. The wcet command uses it with its own
// binary and the hidden -ledger-worker flag.
func ProcessLauncher(argv ...string) LedgerLauncher {
	return &ledger.ProcLauncher{Command: argv}
}

// RemoteLauncher leases distributed workers onto wcet agents on other
// machines (see StartRemoteAgent) and streams their journals back over
// TCP, so LedgerConfig.Launcher can span hosts: torn connections are
// resumed from the last verified frame, a host that stays unreachable
// through the reconnect budget is marked down and its units re-leased —
// onto the remaining agents, or onto the Fallback launcher when none are
// left. Reports stay byte-identical to a local run throughout.
type RemoteLauncher = remote.Launcher

// RemoteAgent serves leased worker shards to RemoteLauncher coordinators
// on other machines — the wcet command's hidden -ledger-agent mode.
type RemoteAgent = remote.Agent

// RemoteAgentConfig configures how a RemoteAgent spawns its workers.
type RemoteAgentConfig = remote.AgentConfig

// RemoteHost is one agent's fleet state as surfaced on /status — see
// StatusConfig.Remote and RemoteLauncher.Hosts.
type RemoteHost = obs.RemoteHost

// StartRemoteAgent binds a remote execution agent on addr and serves
// until Close. Workers spawn per AgentConfig.Exec; their journals and
// telemetry stream back to whichever coordinator holds the lease.
func StartRemoteAgent(addr string, cfg RemoteAgentConfig) (*RemoteAgent, error) {
	return remote.StartAgent(addr, cfg)
}

// NewLedgerSpec builds the distributable spec for analysing src under
// opt. It errors on options that cannot cross a process boundary (runtime
// hooks, a custom cost model, an attached journal or cache — the
// coordinator owns those).
func NewLedgerSpec(src string, opt Options) (LedgerSpec, error) {
	return ledger.SpecFor(src, opt)
}

// Distribute runs the analysis described by spec across worker processes
// (or goroutines — see LedgerConfig.Launcher). The resulting report is
// byte-identical (Report.WriteCanonical) to a single-process run: every
// journaled unit is a pure function of (program, options, unit key), so
// shard boundaries, worker deaths and merge order cannot change it.
func Distribute(ctx context.Context, spec LedgerSpec, cfg LedgerConfig) (*LedgerResult, error) {
	return ledger.Run(ctx, spec, cfg)
}

// LedgerWorker executes one coordinator-written assignment file to
// completion — the entry point a worker process calls (the wcet command's
// hidden -ledger-worker flag). It returns nil exactly when every leased
// unit has a durable record in the worker's journal.
func LedgerWorker(ctx context.Context, assignmentPath string) error {
	return ledger.RunWorker(ctx, assignmentPath, ledger.WorkerOptions{})
}

// Analyze runs the full hybrid WCET analysis on C source text.
func Analyze(src string, opt Options) (*Report, error) {
	return core.Analyze(src, opt)
}

// AnalyzeCtx is Analyze under a context: cancellation and deadlines unwind
// the whole pipeline cooperatively.
func AnalyzeCtx(ctx context.Context, src string, opt Options) (*Report, error) {
	return core.AnalyzeCtx(ctx, src, opt)
}
