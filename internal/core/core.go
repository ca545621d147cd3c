// Package core orchestrates the complete hybrid measurement-based WCET
// analysis of the paper:
//
//	parse → semantic check → CFG → PS partitioning (path bound b)
//	      → hybrid test-data generation (GA, then model checking)
//	      → instrumented measurement on the cycle-accurate simulator
//	      → timing-schema WCET bound
//
// The pipeline is budgeted and cancellable end to end: the context passed
// to AnalyzeCtx bounds the whole analysis (cancel or deadline), Options
// bounds each stage (model-checker step/node caps and per-call timeout, GA
// evaluation cap), and a stage that runs out of budget degrades the result
// instead of aborting it. The final Report is soundness-aware — it states
// whether the bound is exact, safe-but-degraded, or unavailable, and
// carries a degradation ledger attributing every unknown path to its
// cause.
//
// The root package wcet re-exports this entry point as the public API.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"wcet/internal/cc/ast"
	"wcet/internal/cc/parser"
	"wcet/internal/cc/sem"
	"wcet/internal/cfg"
	"wcet/internal/codegen"
	"wcet/internal/fail"
	"wcet/internal/interp"
	"wcet/internal/journal"
	"wcet/internal/measure"
	"wcet/internal/obs"
	"wcet/internal/partition"
	"wcet/internal/paths"
	"wcet/internal/schema"
	"wcet/internal/sim"
	"wcet/internal/testgen"
	"wcet/internal/vcache"
)

// Options configure an analysis.
type Options struct {
	// FuncName selects the analysed function ("" = first).
	FuncName string
	// Bound is the partitioning path bound b (default 8).
	Bound int64
	// TestGen tunes the hybrid generator.
	TestGen testgen.Config
	// MCTimeout bounds each individual model-checker call's wall clock
	// (0 = none). It fills TestGen.MC.Timeout when that is unset. A call
	// that times out leaves its path Unknown and degrades the report; it
	// does not abort the analysis.
	MCTimeout time.Duration
	// Exhaustive additionally measures every input vector end to end when
	// the input space is at most MaxExhaustive (ground truth).
	Exhaustive    bool
	MaxExhaustive int
	// Costs overrides the simulator's cycle model.
	SimOptions sim.Options
	// Workers bounds the fan-out of every parallel pipeline stage — GA
	// searches, model-checker calls, measurement replays and the
	// exhaustive sweep. 0 (the default) uses one worker per CPU,
	// 1 reproduces the serial pipeline. Every stage merges its results
	// deterministically, so the Report is identical for every value.
	Workers int
	// Obs receives the analysis's observability stream: stage spans, the
	// metrics registry and -v progress. nil (the default) disables
	// observation at the cost of one pointer check per site; the attached
	// observer is also threaded through the context, so every stage —
	// testgen, both model-checker engines, the GA, measurement, the
	// partitioning sweep and the worker pool — reports into the same
	// registry and trace. Deterministic exports (canonical snapshot and
	// event stream) are byte-identical for every Workers value.
	Obs *obs.Observer
	// Journal, when set, makes the run durable: every completed
	// generation unit (one GA search, one model-checker verdict) is
	// appended to the journal as it finishes, and a later run over the same
	// program and options resumes by replaying journaled units instead of
	// recomputing them. Measurement is not journaled — a simulator replay
	// costs less than its journal append — so a resumed run re-measures.
	// The journal is bound to a fingerprint of (program, the options
	// generation depends on) — a mismatch resets it and runs clean — and
	// the final Report is byte-identical (see Report.WriteCanonical)
	// whether the analysis ran in one shot or was killed and resumed any
	// number of times, at any worker count. nil disables journaling.
	Journal *journal.Journal
	// Cache, when set, makes re-analysis incremental: per-path
	// model-checker verdicts and GA outcomes are memoized in the persistent
	// verdict store under content-addressed keys, so a later run — of this
	// program or an edited one — replays every verdict whose sliced query
	// the edit left untouched instead of re-proving it. The journal stays
	// authoritative for a resumed run (journal replay wins over cache, and
	// journaled units are copied into the cache); a warm run's Report is
	// byte-identical (WriteCanonical) to a clean run's at any worker count.
	// nil disables caching.
	Cache *vcache.Store
}

func (o Options) withDefaults() Options {
	if o.Bound == 0 {
		o.Bound = 8
	}
	if o.MaxExhaustive == 0 {
		o.MaxExhaustive = 1 << 16
	}
	return o
}

// resolvedTestGen is the generator configuration the stages actually see:
// worker count and per-call model-checker timeout filled from the
// top-level options. The journal fingerprint digests exactly this resolved
// form, so every consumer (analysis, frontier planning, distributed
// workers) must resolve the same way.
func (o Options) resolvedTestGen() testgen.Config {
	tg := o.TestGen
	if tg.Workers == 0 {
		tg.Workers = o.Workers
	}
	if tg.MC.Timeout == 0 {
		tg.MC.Timeout = o.MCTimeout
	}
	return tg
}

// Soundness classifies how much trust the computed WCET bound deserves.
type Soundness int

// Soundness levels.
const (
	// BoundExact: every target path was covered or proven infeasible; the
	// bound is safe with respect to the measured cost model.
	BoundExact Soundness = iota
	// BoundDegradedSafe: some paths stayed Unknown (budget, timeout or
	// model-checker failure), but an exhaustive input sweep restored full
	// coverage of the affected segments — the bound is safe, obtained the
	// expensive way.
	BoundDegradedSafe
	// BoundUnavailable: Unknown paths remain and the input space is too
	// large for the exhaustive fallback; no safe bound can be stated.
	// Report.WCET is -1.
	BoundUnavailable
)

func (s Soundness) String() string {
	switch s {
	case BoundExact:
		return "exact"
	case BoundDegradedSafe:
		return "safe-but-degraded"
	case BoundUnavailable:
		return "unavailable"
	}
	return fmt.Sprintf("soundness(%d)", int(s))
}

// Degradation is one ledger entry: a target path the generator could not
// resolve, the plan units whose coverage that weakens, the recorded cause,
// and how (whether) the pipeline compensated.
type Degradation struct {
	// PathKey identifies the unresolved target path.
	PathKey string
	// Units lists the plan-unit indices that needed this path measured.
	Units []int
	// Cause is the structured error that stopped generation (budget
	// exceeded, timeout, model-checker failure, or "model checker
	// disabled").
	Cause error
	// Resolution is "exhaustive-fallback" when the exhaustive input sweep
	// restored the affected units' coverage, "unresolved" otherwise.
	Resolution string
	// Attempts is the retry/failover history for the path, when it needed
	// more than one attempt before landing in the ledger.
	Attempts []string
	// Flight is the flight-recorder dump harvested from the worker this
	// path's quarantined unit repeatedly killed (nil outside the ledger's
	// quarantine path). Volatile diagnostics: rendered by human-facing
	// views only, excluded from WriteCanonical and Summary.
	Flight []string
}

// Report is the complete analysis result.
type Report struct {
	File *ast.File
	Fn   *ast.FuncDecl
	G    *cfg.Graph
	Plan *partition.Plan
	// TestGen is the hybrid generation report (per-path verdicts).
	TestGen *testgen.Report
	// Measurement aggregates per-unit maxima.
	Measurement *measure.Result
	// WCET is the timing-schema bound in simulator cycles (-1 when
	// Soundness is BoundUnavailable).
	WCET int64
	// Soundness states how trustworthy WCET is; anything other than
	// BoundExact comes with a non-empty Degradations ledger.
	Soundness Soundness
	// Degradations attributes every unresolved target path to its cause.
	Degradations []Degradation
	// Critical lists the plan units on the bound's critical path.
	Critical []int
	// DegradedUnits lists the plan units whose worst path is not
	// guaranteed exercised by the generated vectors (before any fallback).
	DegradedUnits []int
	// ExhaustiveWCET is the true end-to-end maximum (-1 when not computed).
	ExhaustiveWCET int64
	// InfeasiblePaths counts targets proven unreachable.
	InfeasiblePaths int
	// ResumedUnits counts work units replayed from the run journal instead
	// of recomputed (0 for clean or un-journaled runs). It is volatile by
	// design — a resumed run and a clean run differ here and nowhere else —
	// so WriteCanonical excludes it.
	ResumedUnits int
	// CachedUnits counts work units served from the persistent verdict
	// cache instead of recomputed (0 for cold or un-cached runs). Like
	// ResumedUnits it is volatile across cache states — and deterministic
	// given a fixed one — so WriteCanonical excludes it.
	CachedUnits int
}

// Overestimate reports the bound's relative overestimation against the
// exhaustive ground truth (0 when unavailable).
func (r *Report) Overestimate() float64 {
	if r.ExhaustiveWCET <= 0 || r.WCET < 0 {
		return 0
	}
	return float64(r.WCET-r.ExhaustiveWCET) / float64(r.ExhaustiveWCET)
}

// Summary renders the verdict line and, for degraded runs, the
// degradation ledger — one attributed line per unresolved path.
func (r *Report) Summary() string {
	var b strings.Builder
	switch r.Soundness {
	case BoundExact:
		fmt.Fprintf(&b, "WCET bound %d cycles (exact: all %d target paths resolved)",
			r.WCET, len(r.TestGen.Results))
	case BoundDegradedSafe:
		fmt.Fprintf(&b, "WCET bound %d cycles (safe-but-degraded: %d unknown path(s) absorbed by exhaustive fallback)",
			r.WCET, len(r.Degradations))
	case BoundUnavailable:
		fmt.Fprintf(&b, "WCET bound unavailable: %d unknown path(s) and input space too large for exhaustive fallback",
			len(r.Degradations))
	}
	if len(r.Degradations) > 0 {
		b.WriteString("\ndegradation ledger:")
		for _, d := range r.Degradations {
			cause := "model checker disabled"
			if d.Cause != nil {
				cause = d.Cause.Error()
			}
			fmt.Fprintf(&b, "\n  path %-24s units %v  %-20s cause: %s",
				d.PathKey, d.Units, d.Resolution, cause)
			for _, a := range d.Attempts {
				fmt.Fprintf(&b, "\n      %s", a)
			}
		}
	}
	return b.String()
}

// Analyze runs the full pipeline on C source text.
func Analyze(src string, opt Options) (*Report, error) {
	return AnalyzeCtx(context.Background(), src, opt)
}

// AnalyzeCtx is Analyze under a context: cancelling ctx (or letting its
// deadline expire) unwinds every stage cooperatively and returns a
// structured fail.ErrCancelled / fail.ErrBudgetExceeded.
func AnalyzeCtx(ctx context.Context, src string, opt Options) (*Report, error) {
	sp := opt.Obs.Span("stage", "frontend", "00/frontend")
	file, fn, g, err := Frontend(src, opt.FuncName)
	if err != nil {
		return nil, err
	}
	sp.End("func", fn.Name, "blocks", g.NumNodes())
	opt.Obs.Progressf("frontend: parsed %s (%d blocks)", fn.Name, g.NumNodes())
	return AnalyzeGraphCtx(ctx, file, fn, g, opt)
}

// Frontend runs the analysis front end alone: parse, semantic check,
// function selection (funcName, "" = first) and CFG construction. The
// distributed coordinator and its workers use it to agree on the analysed
// graph before any pipeline stage runs.
func Frontend(src, funcName string) (*ast.File, *ast.FuncDecl, *cfg.Graph, error) {
	file, err := parser.ParseFile("input.c", src)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := sem.Check(file); err != nil {
		return nil, nil, nil, err
	}
	var fn *ast.FuncDecl
	if funcName == "" {
		if len(file.Funcs) == 0 {
			return nil, nil, nil, fmt.Errorf("core: no function to analyse")
		}
		fn = file.Funcs[0]
	} else if fn = file.Func(funcName); fn == nil {
		return nil, nil, nil, fmt.Errorf("core: function %q not found", funcName)
	}
	g, err := cfg.Build(fn)
	if err != nil {
		return nil, nil, nil, err
	}
	return file, fn, g, nil
}

// AnalyzeGraph runs the pipeline on a prebuilt CFG.
func AnalyzeGraph(file *ast.File, fn *ast.FuncDecl, g *cfg.Graph, opt Options) (*Report, error) {
	return AnalyzeGraphCtx(context.Background(), file, fn, g, opt)
}

// AnalyzeGraphCtx runs the pipeline on a prebuilt CFG under a context.
//
// Degradation contract: a target path whose generation ran out of budget
// (or whose model-checker call failed) does not abort the analysis. The
// affected plan units are marked degraded, and when the function's input
// space fits Options.MaxExhaustive the pipeline falls back to measuring
// every input vector — restoring full coverage the expensive way and
// yielding a safe-but-degraded bound. When the space is too large the
// report says so: Soundness is BoundUnavailable and WCET is -1, because a
// bound whose critical segments were never forced to their worst path
// would be a guess, not a guarantee.
func AnalyzeGraphCtx(ctx context.Context, file *ast.File, fn *ast.FuncDecl, g *cfg.Graph, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	o := opt.Obs
	// The observer rides the context from here on, exactly like the fault
	// injector: testgen, the model checker, measurement and the worker pool
	// all read it back with obs.From.
	ctx = obs.With(ctx, o)
	rep := &Report{File: file, Fn: fn, G: g, ExhaustiveWCET: -1}

	// The generator configuration is resolved up front: the journal
	// fingerprint must digest the exact configuration the stages will see.
	tgConf := opt.resolvedTestGen()

	// Durable runs: bind the journal to this (program, options) identity
	// and thread it through the context like the observer and the fault
	// injector. A fingerprint mismatch resets the journal — resuming under
	// changed options would splice two different analyses into one report.
	if j := opt.Journal; j != nil {
		resumable, err := j.Bind(fingerprint(file, fn, g, opt, tgConf))
		if err != nil {
			return nil, fail.Infra("core", err)
		}
		ctx = journal.With(ctx, j)
		o.Count("journal.resumable_units", int64(resumable))
		o.Progressf("journal: %s bound, %d completed unit(s) available for resume",
			j.Path(), resumable)
	}

	// Incremental runs: thread the persistent verdict cache through the
	// context like the journal. Traffic is exported as this run's delta, so
	// a long-lived store serving many analyses still yields per-run
	// hit/miss/byte counts (deterministic given the store's state at bind).
	var cache0 vcache.Counters
	if vc := opt.Cache; vc != nil {
		cache0 = vc.Counters()
		ctx = vcache.With(ctx, vc)
		o.Progressf("vcache: %s attached (%d record(s) on disk)", vc.Dir(), vc.Len())
	}

	// 1. Partition.
	sp := o.Span("stage", "partition", "10/partition", "bound", opt.Bound)
	plan, err := partition.PartitionBound(g, opt.Bound)
	if err != nil {
		return nil, err
	}
	rep.Plan = plan
	sp.End("units", len(plan.Units), "ip", plan.IP, "m", plan.M)
	o.Count("partition.units", int64(len(plan.Units)))
	o.Set("partition.ip", 0, int64(plan.IP))
	o.Progressf("partition: bound=%d → %d units, ip=%d, m=%s", opt.Bound, len(plan.Units), plan.IP, plan.M)

	// 2. Targets: every internal path of whole-measured segments, and every
	// outcome of residual blocks (block time depends on the branch taken),
	// each mapped back to the plan units that need it.
	sp = o.Span("stage", "targets", "20/targets")
	targets, owners, err := planTargets(g, rep.Plan)
	if err != nil {
		return nil, err
	}
	sp.End("targets", len(targets))
	o.Count("testgen.targets", int64(len(targets)))

	// 3. Hybrid test-data generation. The pipeline always runs the model
	// optimisations: the naive translation exists for the Table 2
	// comparison, not for production analyses.
	gen := testgen.New(file, fn, g)
	sp = o.Span("stage", "testgen", "30/testgen", "targets", len(targets))
	rep.TestGen, err = gen.GenerateCtx(ctx, targets, tgConf)
	if err != nil {
		return nil, err
	}
	sp.End("heuristic-share", fmt.Sprintf("%.2f", rep.TestGen.HeuristicShare),
		"ga-evals", rep.TestGen.TotalGAEvals, "mc-steps", rep.TestGen.TotalMCSteps)
	o.Progressf("testgen: %s", rep.TestGen.Summary())
	var envs []interp.Env
	degradedUnits := map[int]bool{}
	for i, r := range rep.TestGen.Results {
		switch r.Verdict {
		case testgen.FoundByHeuristic, testgen.FoundByModelChecker:
			envs = append(envs, r.Env)
		case testgen.Infeasible:
			rep.InfeasiblePaths++
		case testgen.Unknown:
			rep.Degradations = append(rep.Degradations, Degradation{
				PathKey:    r.Path.Key(),
				Units:      owners[i],
				Cause:      r.Err,
				Resolution: "unresolved",
				Attempts:   r.Attempts,
				Flight:     r.Flight,
			})
			for _, u := range owners[i] {
				degradedUnits[u] = true
			}
		}
	}
	rep.DegradedUnits = sortedKeys(degradedUnits)

	// 4. Measure on the simulator.
	sp = o.Span("stage", "compile", "40/compile")
	img, err := codegen.Compile(g, file)
	if err != nil {
		return nil, err
	}
	sp.End()
	vm := sim.New(img, opt.SimOptions)
	sp = o.Span("stage", "measure", "50/measure", "vectors", len(envs))
	rep.Measurement, err = measure.CampaignCtx(ctx, rep.Plan, vm, envs, opt.Workers)
	if err != nil {
		return nil, err
	}
	sp.End("runs", rep.Measurement.Runs)
	o.Progressf("measure: %d vectors replayed over %d units", rep.Measurement.Runs, len(rep.Measurement.Times))

	// 4b. Degraded mode: the generated vectors are not guaranteed to
	// exercise the worst path of the degraded units. When the input space
	// is small enough, fall back to exhaustively measuring every vector —
	// per-unit maxima over the full space dominate every path, restoring
	// safety. Otherwise the bound is unavailable.
	exhaustiveEnvs, enumerable := enumerateAll(gen, tgConf.Base, opt.MaxExhaustive)
	if len(rep.Degradations) > 0 {
		if !enumerable {
			rep.Soundness = BoundUnavailable
			rep.WCET = -1
			finishObservation(o, opt, rep, cache0)
			return rep, nil
		}
		sp = o.Span("stage", "fallback", "60/fallback", "vectors", len(exhaustiveEnvs))
		fallback, err := measure.CampaignCtx(ctx, rep.Plan, vm, exhaustiveEnvs, opt.Workers)
		if err != nil {
			return nil, err
		}
		rep.Measurement.Merge(fallback)
		for i := range rep.Degradations {
			rep.Degradations[i].Resolution = "exhaustive-fallback"
		}
		rep.Soundness = BoundDegradedSafe
		sp.End("runs", fallback.Runs)
		o.Progressf("fallback: exhaustive sweep of %d vectors restored coverage", fallback.Runs)
	}
	pruneUnobserved(rep)

	// 5. Timing schema.
	sp = o.Span("stage", "schema", "70/schema")
	bound, err := schema.ComputeDegraded(rep.Measurement, degradedUnits)
	if err != nil {
		return nil, err
	}
	rep.WCET = bound.WCET
	rep.Critical = bound.CriticalUnits
	sp.End("wcet", rep.WCET, "critical-units", len(rep.Critical))

	// 6. Optional exhaustive ground truth.
	if opt.Exhaustive && enumerable {
		sp = o.Span("stage", "exhaustive", "80/exhaustive", "vectors", len(exhaustiveEnvs))
		exh, err := measure.ExhaustiveMaxCtx(ctx, vm, exhaustiveEnvs, opt.Workers)
		if err != nil {
			return nil, err
		}
		rep.ExhaustiveWCET = exh
		sp.End("max-cycles", exh)
		o.Set("measure.exhaustive.wcet_cycles", 0, exh)
	}
	finishObservation(o, opt, rep, cache0)
	o.Progressf("schema: WCET=%d cycles, soundness=%s", rep.WCET, rep.Soundness)
	return rep, nil
}

// finishObservation records the verdict-level metrics and the degradation
// ledger into the observation session, and closes out the run journal's
// resume accounting and the verdict cache's traffic accounting. Ledger
// entries become deterministic instant events — one per unresolved path,
// keyed by path key and carrying the attributed units, resolution and
// cause — so a degraded run is diagnosable from the trace alone. Called
// exactly once per analysis, after every Resolution is final.
func finishObservation(o *obs.Observer, opt Options, rep *Report, cache0 vcache.Counters) {
	j := opt.Journal
	rep.ResumedUnits = j.Hits()
	if rep.TestGen != nil {
		rep.CachedUnits = rep.TestGen.CachedUnits
	}
	if o == nil {
		return
	}
	if j != nil {
		o.Count("journal.replayed_units", int64(rep.ResumedUnits))
	}
	if opt.Cache != nil {
		// Hits, misses and read bytes are deterministic given the cache
		// state at bind (the generator probes once per distinct key, against
		// pre-run state). Written bytes are volatile: a GA target covered
		// incidentally stores a slim skip record, and whether that happens
		// before its own search runs depends on worker scheduling.
		d := opt.Cache.Counters().Sub(cache0)
		o.Count("vcache.hits", d.Hits)
		o.Count("vcache.misses", d.Misses)
		o.Count("vcache.bytes_read", d.BytesRead)
		o.CountV("vcache.bytes_written", d.BytesWritten)
		o.Count("vcache.replayed_units", int64(rep.CachedUnits))
	}
	o.Set("schema.wcet_cycles", 0, rep.WCET)
	o.Set("core.soundness", 0, int64(rep.Soundness))
	o.Count("core.infeasible_paths", int64(rep.InfeasiblePaths))
	o.Count("core.degraded_paths", int64(len(rep.Degradations)))
	for _, d := range rep.Degradations {
		cause := "model checker disabled"
		if d.Cause != nil {
			cause = d.Cause.Error()
		}
		o.Instant("ledger", "degraded", "65/ledger/"+d.PathKey,
			"path", d.PathKey, "units", fmt.Sprint(d.Units),
			"resolution", d.Resolution, "cause", cause)
		o.Emit(obs.BusEvent{Kind: obs.EvDegradation, Unit: d.PathKey,
			Detail: fmt.Sprintf("resolution=%s cause=%s", d.Resolution, cause)})
	}
}

// enumerateAll builds the full input-vector cross product, reporting
// whether the space fits the cap.
func enumerateAll(gen *testgen.Generator, base interp.Env, cap int) ([]interp.Env, bool) {
	var inputs []measure.InputVar
	for _, v := range gen.Inputs {
		inputs = append(inputs, measure.InputVar{Decl: v.Decl, Lo: v.Lo, Hi: v.Hi})
	}
	all, err := measure.EnumerateInputs(inputs, base, cap)
	if err != nil {
		return nil, false
	}
	return all, true
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// planTargets enumerates the paths each plan unit needs measured, and for
// each target the (ascending) list of plan units that requested it — the
// attribution the degradation ledger needs when a target stays Unknown.
func planTargets(g *cfg.Graph, plan *partition.Plan) ([]paths.Path, [][]int, error) {
	var targets []paths.Path
	var owners [][]int
	index := map[string]int{}
	add := func(unit int, p paths.Path) {
		k := p.Key()
		if i, ok := index[k]; ok {
			if os := owners[i]; os[len(os)-1] != unit {
				owners[i] = append(os, unit)
			}
			return
		}
		index[k] = len(targets)
		targets = append(targets, p)
		owners = append(owners, []int{unit})
	}
	blockTargets := func(unit int, id cfg.NodeID) {
		succs := g.Succs(id)
		if len(succs) == 0 {
			add(unit, paths.Path{Blocks: []cfg.NodeID{id},
				Exit: cfg.Edge{From: id, To: cfg.NoNode, Kind: "end"}})
			return
		}
		for _, e := range succs {
			add(unit, paths.Path{Blocks: []cfg.NodeID{id}, Exit: e})
		}
	}
	for ui, u := range plan.Units {
		switch u.Kind {
		case partition.WholePS:
			ps, err := paths.Enumerate(u.PS.Region, 100000)
			if err == paths.ErrCyclic {
				// A bounded-loop segment measured as a whole: its iteration
				// paths cannot be enumerated, so target every block outcome
				// inside it instead; measurement still times the segment end
				// to end on the runs that reach it.
				for _, id := range u.PS.Region.Nodes() {
					blockTargets(ui, id)
				}
				continue
			}
			if err != nil {
				return nil, nil, fmt.Errorf("core: enumerating segment paths: %w", err)
			}
			for _, p := range ps {
				add(ui, p)
			}
		case partition.SingleBlock:
			blockTargets(ui, u.Block)
		}
	}
	return targets, owners, nil
}

// pruneUnobserved drops per-unit observations that never happened because
// every path into the unit is infeasible. Such units cannot execute, so
// they are removed from the schema graph by giving them zero weight — but
// only when genuinely unreachable (all their targets infeasible); an
// unmeasured reachable unit is a campaign bug that schema.Compute reports.
func pruneUnobserved(rep *Report) {
	for i := range rep.Measurement.Times {
		ut := &rep.Measurement.Times[i]
		if ut.Samples == 0 {
			// Unreachable code contributes nothing to any executable path.
			ut.Max = 0
		}
	}
}

// Interrupted reports whether an analysis error is a budget/cancellation
// stop (degradable) rather than an infrastructure failure; re-exported
// here so cmd/wcet need not import internal/fail directly.
func Interrupted(err error) bool { return fail.Interrupted(err) }
