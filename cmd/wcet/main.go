// Command wcet runs the complete hybrid measurement-based WCET analysis on
// a C source file:
//
//	wcet [-func name] [-bound b] [-exhaustive] [-seed n] [-timeout d] [-mc-timeout d]
//	     [-journal file] [-resume] [-distribute n] [-agents addrs] [-cache dir]
//	     [-watch] [-v] [-trace file] [-metrics file] [-status addr] file.c
//
// The analysis report goes to stdout; diagnostics, errors and -v progress go
// to stderr, so results stay pipeable. -trace writes a Chrome trace-event
// file (load in chrome://tracing or https://ui.perfetto.dev) and -metrics
// writes the metrics registry as JSON; live CPU/heap profiles are under
// -status's /debug/pprof. Trace and metrics files are written even when the
// analysis fails or panics, so a degraded run can be diagnosed.
//
// -journal makes the run durable: every completed unit of work is appended
// to the journal file before the pipeline moves on, so a run killed at any
// point can be re-invoked with -resume to replay the finished units and
// converge on the identical report. Without -resume a pre-existing journal
// is discarded for a clean start.
//
// -cache makes re-analysis incremental: per-path model-checker verdicts and
// GA outcomes are memoized in the given directory under content-addressed
// keys. The model-checker keys digest the optimized, per-trap-sliced
// transition system, so after an edit only the paths whose sliced query the
// edit actually touched are re-proved — everything else is served from the
// cache, and the report is byte-for-byte what a clean run would produce.
// The report says how many verdicts were served from cache versus
// re-proved; -v marks each cached path verdict.
//
// -distribute n runs the analysis as n worker processes under a
// fault-tolerant coordinator (requires -journal: the journal file is the
// shared work ledger). The coordinator leases unresolved work units to
// workers, harvests completed records from their journals — first write
// wins — and assembles the report from the canonical journal, so the
// result is byte-identical to a single-process run. Workers may be killed
// at any instant (their leases are reclaimed and re-assigned); killing
// the coordinator and re-invoking the same command resumes the run like
// -resume. A unit that repeatedly kills its workers is quarantined into
// the degradation ledger instead of hanging the run. -distribute is
// incompatible with -watch and -cache (the journal is the only shared
// store). The hidden -ledger-worker flag is the worker entry point the
// coordinator spawns; it is not meant for interactive use.
//
// -agents spans the distributed run across machines: each comma-separated
// address names a wcet agent started on another host with the hidden
// -ledger-agent mode (wcet -ledger-agent :9400), and -distribute n leases
// its n workers round-robin onto the live agents, streaming their
// journals back over TCP. A torn connection is resumed from the last
// verified frame; an agent that stays unreachable through the reconnect
// budget is marked down (visible under "remote" in /status) and its units
// re-leased onto the remaining agents — or onto local worker processes
// when every agent is down, so the run completes degraded-but-correct on
// one machine. The report stays byte-identical to a local run throughout.
// A two-machine run over loopback looks like:
//
//	wcet -ledger-agent 127.0.0.1:9400 &
//	wcet -ledger-agent 127.0.0.1:9401 &
//	wcet -journal run.journal -distribute 4 \
//	     -agents 127.0.0.1:9400,127.0.0.1:9401 file.c
//
// -status serves live run telemetry over HTTP while the analysis runs:
// GET /status returns a JSON snapshot (deterministic stage progress
// recomputed from the journal plus volatile elapsed/bus/fleet counters),
// GET /metrics the registry in Prometheus text exposition format,
// GET /events a Server-Sent-Events stream of the structured event bus
// (stage transitions, unit lifecycle, verdicts, worker spawns/exits), and
// /debug/pprof the usual profiles. The server is read-only and never
// perturbs the analysis — a stalled /events consumer drops events instead
// of stalling the pipeline, and the report is byte-identical with and
// without -status. With -distribute, /status aggregates the per-worker
// telemetry sidecars into a fleet view. Try:
//
//	wcet -journal run.journal -distribute 4 -status localhost:8080 file.c &
//	curl -s localhost:8080/status | head
//	curl -N localhost:8080/events
//
// On a panic — and when a distributed run quarantines a unit — the flight
// recorder (the last events preceding the failure) is dumped to a .crash
// file next to the journal.
//
// -watch re-runs the analysis whenever the source file changes (polled;
// ctrl-c stops). Combined with -cache this is an edit-analyze loop where
// each iteration re-proves only the regions the edit touched. -watch is
// incompatible with -journal: a journal is bound to one program identity,
// which is exactly what an edit changes.
//
// SIGINT and SIGTERM interrupt the analysis through the normal exit path:
// everything already journaled stays durable, -trace and -metrics files
// are still written, and the process exits 3 (interrupted) rather than
// dying with artifacts half-missing.
//
// Exit codes:
//
//	0  analysis completed with an exact bound
//	1  usage error (bad flags or arguments)
//	2  parse, semantic or infrastructure error, or an escaped panic
//	3  analysis interrupted (timeout/cancellation) or bound degraded/unavailable
//	4  analysis completed with an exact bound, partly replayed from a journal
//	5  distributed run completed, but work units that repeatedly killed
//	   their workers were quarantined — the bound is degraded or unavailable
//
// When several codes apply the most severe wins: 5 over 3 over 4 over 0.
// In -watch mode the process runs until interrupted and exits with the code
// of the last completed analysis.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"wcet"
)

const (
	exitOK          = 0
	exitUsage       = 1
	exitError       = 2
	exitDegraded    = 3
	exitResumed     = 4
	exitQuarantined = 5
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) (code int) {
	// Catch any panic that escapes the pipeline's isolation so the exit
	// code stays meaningful — and, because this defer is registered first,
	// the trace/metrics exports below it still run during the unwind. The
	// observer and crash path are declared up here so the unwind can dump
	// the flight recorder (the last events before the panic) next to the
	// journal.
	var ob *wcet.Observer
	var crashPath string
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "wcet: panic: %v\n%s", r, debug.Stack())
			if crashPath != "" {
				if werr := wcet.WriteCrashFile(crashPath, fmt.Sprintf("panic: %v", r), ob.FlightDump()); werr == nil {
					fmt.Fprintf(os.Stderr, "wcet: flight recorder dumped to %s\n", crashPath)
				}
			}
			code = exitError
		}
	}()
	fs := flag.NewFlagSet("wcet", flag.ContinueOnError)
	funcName := fs.String("func", "", "function to analyse (default: first in file)")
	bound := fs.Int64("bound", 8, "path bound b: segments with at most b paths are measured whole")
	exhaustive := fs.Bool("exhaustive", false, "also measure every input vector end to end")
	seed := fs.Int64("seed", 1, "seed for the genetic test-data search")
	workers := fs.Int("workers", 0, "parallel analysis workers (0 = one per CPU, 1 = serial); results are identical for every value")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole analysis (0 = none)")
	mcTimeout := fs.Duration("mc-timeout", 0, "wall-clock budget per model-checker call (0 = none); an expired call degrades its path instead of failing the run")
	journalFile := fs.String("journal", "", "append completed work units to this crash-safe journal; a killed run can be resumed with -resume")
	resume := fs.Bool("resume", false, "replay finished units from the -journal file instead of discarding them")
	cacheDir := fs.String("cache", "", "memoize per-path verdicts in this directory; later runs (of this or an edited program) replay verdicts whose sliced query is unchanged")
	distribute := fs.Int("distribute", 0, "run the analysis across this many worker processes under a fault-tolerant coordinator (requires -journal)")
	agents := fs.String("agents", "", "comma-separated remote agent addresses to lease -distribute workers onto; falls back to local processes when every agent is down")
	ledgerWorker := fs.String("ledger-worker", "", "internal: run one distributed-worker assignment file and exit (spawned by -distribute)")
	ledgerAgent := fs.String("ledger-agent", "", "internal: serve this address as a remote execution agent until SIGINT/SIGTERM (leased onto by -agents coordinators)")
	agentAddrFile := fs.String("agent-addr-file", "", "internal: write the agent's bound address to this file (test hook for ephemeral ports)")
	watch := fs.Bool("watch", false, "re-run the analysis whenever the source file changes (best with -cache)")
	verbose := fs.Bool("v", false, "print per-path test-data verdicts (stdout) and stage progress (stderr)")
	traceFile := fs.String("trace", "", "write a Chrome trace-event file of the pipeline stages")
	metricsFile := fs.String("metrics", "", "write the metrics registry (counters, gauges, histograms) as JSON")
	statusAddr := fs.String("status", "", "serve live run telemetry on this address (e.g. localhost:8080): /status, /metrics, /events, /debug/pprof")
	statusAddrFile := fs.String("status-addr-file", "", "internal: write the bound -status address to this file (test hook for ephemeral ports)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: wcet [flags] file.c")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *ledgerWorker != "" {
		// Worker mode: the whole process is one leased shard. Signals still
		// cancel cleanly; everything already journaled survives regardless.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := wcet.LedgerWorker(ctx, *ledgerWorker); err != nil {
			fmt.Fprintln(os.Stderr, "wcet:", err)
			return exitError
		}
		return exitOK
	}
	if *ledgerAgent != "" {
		return runAgent(*ledgerAgent, *agentAddrFile)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return exitUsage
	}
	if *resume && *journalFile == "" {
		fmt.Fprintln(os.Stderr, "wcet: -resume requires -journal")
		return exitUsage
	}
	if *watch && *journalFile != "" {
		fmt.Fprintln(os.Stderr, "wcet: -watch is incompatible with -journal (a journal is bound to one program identity)")
		return exitUsage
	}
	if *distribute > 0 {
		switch {
		case *journalFile == "":
			fmt.Fprintln(os.Stderr, "wcet: -distribute requires -journal (the journal file is the shared work ledger)")
			return exitUsage
		case *watch:
			fmt.Fprintln(os.Stderr, "wcet: -distribute is incompatible with -watch")
			return exitUsage
		case *cacheDir != "":
			fmt.Fprintln(os.Stderr, "wcet: -distribute is incompatible with -cache (the journal is the only store shared with workers)")
			return exitUsage
		}
	}
	if *agents != "" && *distribute == 0 {
		fmt.Fprintln(os.Stderr, "wcet: -agents requires -distribute (agents serve leased distributed workers)")
		return exitUsage
	}
	srcPath := fs.Arg(0)
	src, err := os.ReadFile(srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcet:", err)
		return exitError
	}
	var jnl *wcet.Journal
	var resumedPrior bool
	if *journalFile != "" {
		if jnl, err = wcet.OpenJournal(*journalFile); err != nil {
			fmt.Fprintln(os.Stderr, "wcet:", err)
			return exitError
		}
		if !*resume {
			if err := jnl.Reset(); err != nil {
				jnl.Close()
				fmt.Fprintln(os.Stderr, "wcet:", err)
				return exitError
			}
		}
		resumedPrior = jnl.Len() > 0
		if *distribute > 0 {
			// The coordinator opens (and locks) the canonical journal itself;
			// this handle only applied the reset-unless-resume policy.
			jnl.Close()
			jnl = nil
		} else {
			defer jnl.Close()
		}
	}
	var cache *wcet.Cache
	if *cacheDir != "" {
		if cache, err = wcet.OpenCache(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "wcet:", err)
			return exitError
		}
	}

	if *traceFile != "" || *metricsFile != "" || *verbose || *statusAddr != "" {
		cfg := wcet.ObserverConfig{}
		if *verbose {
			cfg.Progress = os.Stderr
		}
		ob = wcet.NewObserver(cfg)
	}
	if *journalFile != "" {
		crashPath = *journalFile + ".crash"
	}
	// Export observability even when the analysis errors out: a trace of a
	// degraded or interrupted run is exactly when you want one. In -watch
	// mode the exports accumulate every iteration.
	defer func() {
		if ob == nil {
			return
		}
		if *traceFile != "" {
			if err := writeTo(*traceFile, ob.Trace().WriteChrome); err != nil {
				fmt.Fprintln(os.Stderr, "wcet: trace:", err)
			}
		}
		if *metricsFile != "" {
			if err := writeTo(*metricsFile, ob.Metrics().WriteSnapshotAll); err != nil {
				fmt.Fprintln(os.Stderr, "wcet: metrics:", err)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	baseOptions := func() wcet.Options {
		return wcet.Options{
			FuncName:   *funcName,
			Bound:      *bound,
			Exhaustive: *exhaustive,
			Workers:    *workers,
			MCTimeout:  *mcTimeout,
			TestGen:    wcet.TestGenConfig{GA: wcet.GAConfig{Seed: *seed}},
		}
	}

	// The worker launcher is built before the status server so the remote
	// fleet view can be wired into /status.
	var launcher wcet.LedgerLauncher
	var remoteL *wcet.RemoteLauncher
	if *distribute > 0 {
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "wcet:", err)
			return exitError
		}
		launcher = wcet.ProcessLauncher(self, "-ledger-worker")
		if *agents != "" {
			remoteL = &wcet.RemoteLauncher{
				Agents:   strings.Split(*agents, ","),
				Fallback: launcher,
			}
			launcher = remoteL
		}
	}

	if *statusAddr != "" {
		sc := wcet.StatusConfig{Observer: ob}
		if *journalFile != "" {
			stFn, err := wcet.JournalStatus(string(src), baseOptions(), *journalFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wcet:", err)
				return exitError
			}
			sc.Status = stFn
		}
		if *distribute > 0 {
			workDir := filepath.Dir(*journalFile)
			sc.Fleet = func() []wcet.WorkerStatus { return wcet.FleetStatus(workDir) }
		}
		if remoteL != nil {
			sc.Remote = remoteL.Hosts
		}
		srv, err := wcet.ServeStatus(*statusAddr, sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wcet: status:", err)
			return exitError
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "wcet: live status on http://%s/status\n", srv.Addr())
		if *statusAddrFile != "" {
			if err := os.WriteFile(*statusAddrFile, []byte(srv.Addr()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "wcet: status:", err)
				return exitError
			}
		}
	}

	if *distribute > 0 {
		spec, err := wcet.NewLedgerSpec(string(src), baseOptions())
		if err != nil {
			fmt.Fprintln(os.Stderr, "wcet:", err)
			return exitError
		}
		res, err := wcet.Distribute(ctx, spec, wcet.LedgerConfig{
			JournalPath:   *journalFile,
			Workers:       *distribute,
			Launcher:      launcher,
			WorkerVerbose: *verbose,
			Obs:           ob,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wcet:", err)
			if wcet.Interrupted(err) {
				return exitDegraded
			}
			return exitError
		}
		printReport(res.Report, *bound, false, *verbose)
		if len(res.Quarantined) > 0 {
			fmt.Fprintf(os.Stderr, "wcet: %d work unit(s) quarantined after repeatedly killing their workers: %v\n",
				len(res.Quarantined), res.Quarantined)
			// The flight dumps are volatile post-mortems: stderr only, so the
			// stdout report stays byte-identical to an undistributed run.
			for _, d := range res.Report.Degradations {
				if len(d.Flight) == 0 {
					continue
				}
				fmt.Fprintf(os.Stderr, "wcet: last events before the worker on %s died:\n", d.PathKey)
				for _, line := range d.Flight {
					fmt.Fprintf(os.Stderr, "  %s\n", line)
				}
			}
		}
		return distExitCode(res, resumedPrior)
	}

	analyzeOnce := func(text string) int {
		opt := baseOptions()
		opt.Obs = ob
		opt.Journal = jnl
		opt.Cache = cache
		report, err := wcet.AnalyzeCtx(ctx, text, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wcet:", err)
			if wcet.Interrupted(err) {
				return exitDegraded
			}
			return exitError
		}
		printReport(report, *bound, cache != nil, *verbose)
		if report.Soundness != wcet.BoundExact {
			return exitDegraded
		}
		if report.ResumedUnits > 0 {
			return exitResumed
		}
		return exitOK
	}

	if !*watch {
		return analyzeOnce(string(src))
	}
	for {
		code = analyzeOnce(string(src))
		if ctx.Err() != nil {
			return code
		}
		fmt.Fprintf(os.Stderr, "wcet: watching %s for changes (ctrl-c to stop)\n", srcPath)
		next, ok := waitForChange(ctx, srcPath, src)
		if !ok {
			return code
		}
		src = next
		fmt.Printf("\n--- %s changed, re-analysing ---\n", srcPath)
	}
}

// runAgent serves this process as a remote execution agent until a signal
// arrives: coordinators started with -agents lease worker shards onto it
// over TCP, and each worker is spawned by re-execing this binary with
// -ledger-worker. SIGINT/SIGTERM shut the agent down, killing its worker
// process groups.
func runAgent(addr, addrFile string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcet:", err)
		return exitError
	}
	agent, err := wcet.StartRemoteAgent(addr, wcet.RemoteAgentConfig{
		Exec: []string{self, "-ledger-worker"},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcet:", err)
		return exitError
	}
	fmt.Fprintf(os.Stderr, "wcet: remote agent serving on %s\n", agent.Addr())
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(agent.Addr()), 0o644); err != nil {
			agent.Close()
			fmt.Fprintln(os.Stderr, "wcet:", err)
			return exitError
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	if err := agent.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "wcet:", err)
		return exitError
	}
	return exitOK
}

// distExitCode maps a distributed run's outcome to the exit-code contract;
// when several codes apply the most severe wins: 5 over 3 over 4 over 0.
// resumedPrior distinguishes "resumed an earlier invocation's journal" from
// the assembly replay every distributed run performs over its own records.
func distExitCode(res *wcet.LedgerResult, resumedPrior bool) int {
	switch {
	case len(res.Quarantined) > 0:
		return exitQuarantined
	case res.Report.Soundness != wcet.BoundExact:
		return exitDegraded
	case resumedPrior:
		return exitResumed
	}
	return exitOK
}

// printReport renders the analysis report to stdout.
func printReport(report *wcet.Report, bound int64, cached, verbose bool) {
	fmt.Printf("function               : %s\n", report.Fn.Name)
	fmt.Printf("basic blocks           : %d\n", report.G.NumNodes())
	fmt.Printf("path bound b           : %d\n", bound)
	fmt.Printf("instrumentation points : %d (fused: %d)\n", report.Plan.IP, report.Plan.IPFused())
	fmt.Printf("measurements           : %s\n", report.Plan.M)
	fmt.Printf("test data              : %s\n", report.TestGen.Summary())
	if report.ResumedUnits > 0 {
		fmt.Printf("resumed from journal   : %d work units replayed\n", report.ResumedUnits)
	}
	if cached {
		// The cache's headline split: how much of the expensive stage this
		// run avoided. Re-proved counts every model-checker verdict computed
		// fresh — after an edit, exactly the paths whose sliced query the
		// edit touched.
		replayed, reproved := 0, 0
		for _, r := range report.TestGen.Results {
			if r.Verdict == wcet.FoundByHeuristic {
				continue
			}
			if r.Cached {
				replayed++
			} else {
				reproved++
			}
		}
		fmt.Printf("model-checker verdicts : %d served from cache, %d re-proved\n", replayed, reproved)
	}
	fmt.Printf("infeasible paths       : %d\n", report.InfeasiblePaths)
	fmt.Printf("soundness              : %s\n", report.Soundness)
	if report.WCET >= 0 {
		fmt.Printf("WCET bound             : %d cycles\n", report.WCET)
	} else {
		fmt.Printf("WCET bound             : unavailable\n")
	}
	if report.ExhaustiveWCET >= 0 {
		fmt.Printf("exhaustive WCET        : %d cycles\n", report.ExhaustiveWCET)
		fmt.Printf("overestimation         : %.1f%%\n", report.Overestimate()*100)
	}
	if len(report.Degradations) > 0 {
		fmt.Println(report.Summary())
	}
	if verbose {
		fmt.Println("\nper-path verdicts:")
		for _, r := range report.TestGen.Results {
			tag := ""
			if r.Cached {
				tag = "  [cached]"
			}
			fmt.Printf("  %-14s %s%s\n", r.Verdict, r.Path.Key(), tag)
		}
	}
}

// waitForChange polls path until its content differs from prev, returning
// the new content. ok is false when the context ended first. Polling keeps
// the watcher portable; 300ms is far below human edit latency.
func waitForChange(ctx context.Context, path string, prev []byte) (next []byte, ok bool) {
	tick := time.NewTicker(300 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, false
		case <-tick.C:
			// A transiently unreadable file (editor mid-save) is retried on
			// the next tick; an empty save is a real change like any other.
			data, err := os.ReadFile(path)
			if err != nil || bytes.Equal(data, prev) {
				continue
			}
			return data, true
		}
	}
}

// writeTo creates path and streams one export into it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
