// Package testgen implements the paper's hybrid test-data generation
// (Section 3): heuristic search first — cheap, expected to cover more than
// 90% of the required paths — then model checking for the residue, which
// either produces the missing data or proves the path infeasible.
package testgen

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"wcet/internal/bdd"
	"wcet/internal/c2m"
	"wcet/internal/cc/ast"
	"wcet/internal/cfg"
	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/ga"
	"wcet/internal/interp"
	"wcet/internal/mc"
	"wcet/internal/obs"
	"wcet/internal/opt"
	"wcet/internal/par"
	"wcet/internal/paths"
	"wcet/internal/retry"
	"wcet/internal/tsys"
	"wcet/internal/vcache"
)

// Verdict classifies one target path after generation.
type Verdict int

// Verdicts.
const (
	// FoundByHeuristic: the genetic search produced covering test data.
	FoundByHeuristic Verdict = iota
	// FoundByModelChecker: the model checker produced the data.
	FoundByModelChecker
	// Infeasible: the model checker proved no input executes the path.
	Infeasible
	// Unknown: generation stopped without data and without a proof — the
	// model checker was disabled, ran out of budget, or failed. The cause
	// is recorded in PathResult.Err; the final report must treat the
	// path's segment as degraded, never as infeasible.
	Unknown
)

func (v Verdict) String() string {
	switch v {
	case FoundByHeuristic:
		return "heuristic"
	case FoundByModelChecker:
		return "model-checker"
	case Infeasible:
		return "infeasible"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// PathResult is the outcome for one target path.
type PathResult struct {
	Path    paths.Path
	Verdict Verdict
	// Env is the covering input assignment for found paths.
	Env interp.Env
	// GAEvaluations and MCStats record the effort spent.
	GAEvaluations int
	MCStats       mc.Stats
	// Err records a model-checker failure (Verdict == Unknown).
	Err error
	// Attempts is the retry/failover history when this path needed more
	// than one attempt (nil for the common first-try case): the GA stage's
	// counted search history, the model-checker stage's per-attempt
	// outcomes, and any engine failover, in that order. The history is a
	// pure function of program + config, identical across worker counts and
	// across kill/resume cycles.
	Attempts []string
	// Cached marks a stage-2 verdict served from the persistent verdict
	// cache instead of re-proved this run. Like Report.CachedUnits it is
	// volatile by design — a warm run and a clean run differ here and in
	// no deterministic field — so canonical exports exclude it.
	Cached bool
	// Flight is the flight-recorder dump attached by the ledger when this
	// unit was quarantined after repeatedly killing its worker: the dead
	// worker's last events, harvested from its telemetry sidecar. Volatile
	// diagnostics — excluded from every canonical export.
	Flight []string
}

// Report aggregates a generation run.
//
// The roll-up fields (TotalGAEvals, TotalMCSteps, PeakMCNodes,
// HeuristicShare) are views of the same single accumulation that feeds the
// observability registry (testgen.ga.evaluations, testgen.mc.steps,
// testgen.mc.peak_nodes, testgen.heuristic_share_bp): both are written
// from one merge pass in GenerateCtx, so the report and a metrics snapshot
// taken from the same run can never disagree.
type Report struct {
	Results []PathResult
	// HeuristicShare is the fraction of feasible paths covered by the GA —
	// the paper expects > 0.9 on real code.
	HeuristicShare float64
	TotalGAEvals   int
	TotalMCSteps   int
	// PeakMCNodes is the largest BDD node count any single model-checker
	// call reached (each call's manager is fresh or reset-to-fresh, so the
	// per-call peaks are independent and their max is worker-count
	// invariant).
	PeakMCNodes int
	// CachedUnits counts work units (GA searches and model-checker
	// verdicts) replayed from the persistent verdict cache instead of
	// recomputed — the cross-run analogue of the journal's resumed units.
	// Deterministic given a fixed cache state, volatile across cache
	// states, so canonical exports exclude it.
	CachedUnits int
}

// Config tunes the hybrid driver.
type Config struct {
	// GA configures the heuristic stage; GA.Seed seeds reproducibility.
	// Each target's search is seeded with SeedFor(GA.Seed, path key), so
	// per-target results do not depend on the target's slice position.
	GA ga.Config
	// Workers bounds the generator's fan-out: GA searches and
	// model-checker calls run on up to Workers goroutines, each with its
	// own interpreter machine (model-checker runs lease private, pooled
	// BDD managers). 0 (the default) uses one worker per CPU, 1 runs
	// serially. The Report is identical for every value.
	Workers int
	// SkipGA jumps straight to the model checker (for comparison runs).
	SkipGA bool
	// SkipMC disables the model checker stage (heuristic-only baseline).
	SkipMC bool
	// MC bounds each model-checker run. Every path model is lowered at
	// its declared widths, sliced to its trap and run through the Section
	// 3.2 pipeline before it is checked; there is no switch for that.
	MC mc.Options
	// Base provides values for non-input variables at function entry.
	Base interp.Env
	// Retry bounds per-unit retrying of transient failures (infrastructure
	// errors, per-call stalls). The zero value retries up to 3 attempts with
	// logical backoff; deterministic budgets, infeasibility proofs and
	// cancellation never retry. See internal/retry.
	Retry retry.Policy
}

// failoverMaxStates caps the input-space size up to which a symbolic run
// that exhausted its BDD node budget fails over to the explicit engine,
// which enumerates initial states exactly: immune to BDD blow-up, but
// exponential in input bits.
const failoverMaxStates = 1 << 16

// Generator owns the analysed function.
type Generator struct {
	File   *ast.File
	Fn     *ast.FuncDecl
	G      *cfg.Graph
	M      *interp.Machine
	Inputs []ga.Variable
}

// New builds a generator; inputs are the function parameters plus globals
// annotated /*@ input */.
func New(file *ast.File, fn *ast.FuncDecl, g *cfg.Graph) *Generator {
	gen := &Generator{File: file, Fn: fn, G: g, M: interp.New(file, interp.Options{})}
	for _, p := range fn.Params {
		gen.Inputs = append(gen.Inputs, ga.DomainOf(p))
	}
	for _, gl := range file.Globals {
		if gl.Input {
			gen.Inputs = append(gen.Inputs, ga.DomainOf(gl))
		}
	}
	return gen
}

// InputDecls lists the input declarations in order.
func (gen *Generator) InputDecls() []*ast.VarDecl {
	out := make([]*ast.VarDecl, len(gen.Inputs))
	for i, v := range gen.Inputs {
		out[i] = v.Decl
	}
	return out
}

// Generate produces test data for every target path.
//
// Both stages fan out over conf.Workers goroutines. GA searches run
// speculatively — each on a worker-private interpreter, collecting its
// incidental coverage locally — and a coverage board folds the outcomes in
// target order, replaying the serial driver's skip rule (a target is
// skipped when an earlier counted search already covers it); see gaBoard.
// Model-checker calls on the residue are independent (one fresh BDD
// manager per call) and merge indexed by target position. The Report is
// therefore identical for every worker count.
func (gen *Generator) Generate(targets []paths.Path, conf Config) (*Report, error) {
	return gen.GenerateCtx(context.Background(), targets, conf)
}

// GenerateCtx is Generate under a context. Cancelling ctx aborts both
// stages cooperatively and returns a structured fail.ErrCancelled (an
// expired deadline returns fail.ErrBudgetExceeded); a worker panic in
// either stage is isolated into a deterministic fail.ErrWorkerPanic. A
// per-path failure, by contrast, never aborts the run: a model-checker
// call that runs out of budget (conf.MC caps and Timeout) or fails leaves
// its target Unknown with the cause recorded in PathResult.Err, and the
// analysis continues — degrading the final report is the caller's job.
//
// Every GA search and every model-checker verdict is one durable unit,
// resolved through the runner (runner.go): replayed from the run journal,
// skipped when a distributed worker does not own it, served from the
// persistent verdict cache, or computed.
func (gen *Generator) GenerateCtx(ctx context.Context, targets []paths.Path, conf Config) (*Report, error) {
	o := obs.From(ctx)
	r := newRunner(ctx)
	n := len(targets)
	keys := make([]string, n)
	for i, p := range targets {
		keys[i] = p.Key()
	}

	// Stage 1: heuristic search. Covered paths accumulate incidentally:
	// every candidate a GA evaluates is checked against the open targets.
	board := newGABoard(keys)
	rep := &Report{}
	if !conf.SkipGA {
		cachedGA, err := gen.searchAll(ctx, r, board, targets, conf)
		if err != nil {
			return nil, fail.Attribute(err, "testgen", "")
		}
		rep.CachedUnits = cachedGA
	}
	covered := board.counted
	rep.TotalGAEvals = board.evals
	o.Progressf("testgen: GA covered %d/%d targets (%d counted evaluations)",
		len(covered), n, board.evals)

	// Stage 2: model checking for the residue.
	results := make([]PathResult, n)
	var residue []int
	for i, p := range targets {
		results[i] = PathResult{Path: p, Attempts: board.attemptsFor(keys[i])}
		if env, ok := covered[keys[i]]; ok {
			results[i].Verdict = FoundByHeuristic
			results[i].Env = env
			continue
		}
		if conf.SkipMC {
			results[i].Verdict = Unknown
			continue
		}
		residue = append(residue, i)
	}
	o.Progressf("testgen: model checking %d residue paths", len(residue))
	if err := gen.checkResidue(ctx, r, targets, keys, residue, results, conf); err != nil {
		return nil, fail.Attribute(err, "testgen", "")
	}

	// Deterministic merge in target order. This single pass feeds both the
	// Report roll-ups and the metrics registry, so the two views agree by
	// construction.
	retried := 0
	var byVerdict [4]int
	for i := range results {
		pr := &results[i]
		byVerdict[pr.Verdict]++
		if pr.Cached {
			rep.CachedUnits++
		}
		if len(pr.Attempts) > 0 {
			retried++
		}
		rep.TotalMCSteps += pr.MCStats.Steps
		rep.PeakMCNodes = max(rep.PeakMCNodes, pr.MCStats.PeakNodes)
	}
	rep.Results = results
	if feasible := byVerdict[FoundByHeuristic] + byVerdict[FoundByModelChecker]; feasible > 0 {
		rep.HeuristicShare = float64(byVerdict[FoundByHeuristic]) / float64(feasible)
	}
	if o != nil {
		o.Count("testgen.ga.evaluations", int64(rep.TotalGAEvals))
		o.Count("testgen.mc.steps", int64(rep.TotalMCSteps))
		o.SetMax("testgen.mc.peak_nodes", int64(rep.PeakMCNodes))
		o.Count("testgen.paths.heuristic", int64(byVerdict[FoundByHeuristic]))
		o.Count("testgen.paths.model_checker", int64(byVerdict[FoundByModelChecker]))
		o.Count("testgen.paths.infeasible", int64(byVerdict[Infeasible]))
		o.Count("testgen.paths.unknown", int64(byVerdict[Unknown]))
		o.Count("testgen.paths.retried", int64(retried))
		o.Set("testgen.heuristic_share_bp", 0, int64(rep.HeuristicShare*10000))
	}
	return rep, nil
}

// searchAll runs stage 1, one durable GA search per target, folding every
// outcome into board, and returns how many searches the cache served. A
// replayed or cached outcome folds exactly like a computed one (the fold
// discards superseded outcomes identically either way, so replay order
// cannot matter); a transient failure retries with a per-attempt seed, and
// an exhausted attempt budget degrades the one target — it simply gets no
// heuristic coverage and falls through to the model checker — instead of
// aborting the run.
//
// A distributed worker computes only its leased unit keys; everything else
// is a sibling's. Scoped runs also disable the incidental-coverage skip
// fast path and search with an empty done-snapshot, so every owned record
// is the full pure outcome of (target, seed) — the canonical coverage fold
// discards exactly the entries a serial run's skip logic would have, so
// the merged journal replays to the identical report.
func (gen *Generator) searchAll(ctx context.Context, r *runner, board *gaBoard,
	targets []paths.Path, conf Config) (int, error) {

	keys := board.keys
	vc := r.vc
	gaKeys := gen.gaCacheKeys(vc, keys, conf)
	var hits atomic.Int64
	err := par.ForEachWorkerCtx(ctx, len(targets), par.Workers(conf.Workers), func(worker int) func(context.Context, int) error {
		m := interp.New(gen.File, gen.M.Opt)
		ow := r.o.Worker(worker)
		return func(ctx context.Context, i int) error {
			var outcome *gaOutcome
			u := unit[*gaRecord]{key: "ga/" + keys[i]}
			if gaKeys != nil {
				u.hit = func() (*gaRecord, bool) { return cacheGet[gaRecord](vc, gaKeys[i]) }
				u.store = func(rec *gaRecord) { _ = vc.Put(gaKeys[i], rec) }
			}
			u.compute = func(ctx context.Context) (*gaRecord, string, error) {
				skipped := false
				// The fault site fires before the skip check on every
				// attempt: whether index i is consulted must not depend on
				// the (schedule-dependent) incidental-coverage fast path.
				attempts, err := retry.Do(ctx, conf.Retry, func(attempt int) error {
					if ferr := faults.Fire(ctx, "testgen.search", i); ferr != nil {
						return fail.From("testgen", ferr)
					}
					// Scoped runs never take the skip fast path: the local
					// fold is a lower bound of the canonical one (unowned
					// outcomes fold as zero), so a local skip could journal a
					// zero record where the canonical run needs the full pure
					// outcome.
					if r.scope == nil && board.trySkip(i) {
						skipped = true
						return nil
					}
					outcome = gen.searchTarget(ctx, m, board, targets, i, attempt, conf, ow, r.scope != nil)
					return nil
				})
				if skipped {
					// The board already folded the skip; its zero record
					// replays the same (empty) contribution.
					return &gaRecord{}, "skipped", nil
				}
				if err != nil {
					outcome = &gaOutcome{}
				}
				if len(attempts) > 1 {
					outcome.attempts = retry.History(attempts)
					ow.Emit(obs.BusEvent{Kind: obs.EvUnitRetried, Stage: "ga",
						Unit: u.key, Detail: fmt.Sprintf("attempts=%d", len(attempts))})
				}
				return gen.packGA(outcome), fmt.Sprintf("found=%t evals=%d", outcome.found, outcome.evals), nil
			}
			rec, from, err := run(ctx, r, ow, u)
			if err != nil {
				return err
			}
			switch from {
			case replayed, cached:
				outcome = gen.unpackGA(rec)
				if from == cached {
					hits.Add(1)
				}
			case unowned:
				// A sibling worker's unit: contribute nothing, compute
				// nothing. The zero outcome keeps the local fold moving.
				outcome = &gaOutcome{}
			}
			if outcome != nil {
				board.deliver(i, outcome)
			}
			return nil
		}
	})
	return int(hits.Load()), err
}

// mcProbe is the verdict-cache prepass result for one residue path.
type mcProbe struct {
	low *c2m.Result // the sliced, unoptimised query (nil on lowering failure)
	err error       // the lowering failure
	key vcache.Key
	// rec is the store's record for key before the run, shared by every
	// residue path with the same key.
	rec *tgRecord
	// owns marks the first residue path with this key: the only one that
	// probed the store, and the only one that writes it.
	owns bool
}

// probeResidue is the stage-2 cache prepass: it lowers every residue path
// once, in residue order, and probes the store exactly once per distinct
// cache key — against its pre-run state. Hits are therefore a pure
// function of (program, configuration, cache state at bind), never of
// worker scheduling: a record this run stores is invisible to this run,
// and when two residue paths slice to the identical query only the first
// owns the key (probes it, stores it) — a duplicate shares the owner's
// probe result, or proves itself exactly as it would without a cache. The
// prepass stops at lowerQuery — the sliced, unoptimised query the key
// digests — so a hit never pays the optimisation pipeline.
func (gen *Generator) probeResidue(vc *vcache.Store, targets []paths.Path, residue []int, conf Config) []mcProbe {
	probes := make([]mcProbe, len(residue))
	owner := map[vcache.Key]int{}
	for k, i := range residue {
		p := &probes[k]
		if p.low, p.err = gen.lowerQuery(targets[i], conf); p.err != nil {
			continue
		}
		p.key = gen.mcCacheKey(p.low, conf)
		if first, seen := owner[p.key]; seen {
			p.rec = probes[first].rec
			continue
		}
		owner[p.key] = k
		p.owns = true
		p.rec, _ = cacheGet[tgRecord](vc, p.key)
	}
	return probes
}

// checkResidue runs stage 2, one durable model-checker verdict per residue
// path, written into results. Each unit has a retry loop (transient
// failures only) and a symbolic→explicit engine failover for BDD
// node-budget blow-ups on small input spaces (see prove).
func (gen *Generator) checkResidue(ctx context.Context, r *runner, targets []paths.Path,
	keys []string, residue []int, results []PathResult, conf Config) error {

	vc := r.vc
	var probes []mcProbe
	if vc != nil {
		probes = gen.probeResidue(vc, targets, residue, conf)
	}
	return par.ForEachWorkerCtx(ctx, len(residue), par.Workers(conf.Workers), func(worker int) func(context.Context, int) error {
		m := interp.New(gen.File, gen.M.Opt)
		ow := r.o.Worker(worker)
		return func(ctx context.Context, k int) error {
			i := residue[k]
			pr := &results[i]
			key := keys[i]
			// The residue set and each call's outcome are pure functions of
			// program + config, so the per-path span is deterministic; its
			// logical key nests it under the testgen stage span.
			sp := ow.Span("testgen", "mc.path", "30/testgen/mc/"+key, "path", key)
			// Lower once per unit: the checked model is a pure function of
			// program + config, identical across retry attempts.
			lower := func() (*c2m.Result, error) { return gen.lowerPath(pr.Path, conf) }
			u := unit[*tgRecord]{key: "tg/" + key}
			if vc != nil {
				p := &probes[k]
				// The prepass already lowered this unit and stopped before
				// the optimisation pipeline; a model that must be proved
				// after all pays it now — exactly what lowerPath produces.
				lower = func() (*c2m.Result, error) {
					if p.err == nil {
						opt.All(p.low.Model)
					}
					return p.low, p.err
				}
				u.hit = func() (*tgRecord, bool) {
					// A cached Found verdict may cross program edits (its
					// sliced query was identical); re-validate the concrete
					// environment on the current program exactly like a
					// fresh witness, failing closed into a recompute.
					if p.rec == nil || p.rec.Verdict == int(FoundByModelChecker) &&
						!gen.validEnv(m, pr.Path, unpackEnv(p.rec.Env, gen.declByName())) {
						return nil, false
					}
					return p.rec, true
				}
				if p.owns {
					u.store = func(rec *tgRecord) { _ = vc.Put(p.key, rec) }
				}
			}
			u.compute = func(ctx context.Context) (*tgRecord, string, error) {
				return gen.decide(ctx, m, ow, pr, i, lower, conf)
			}
			rec, from, err := run(ctx, r, ow, u)
			if err != nil {
				return err
			}
			switch from {
			case unowned:
				// A sibling's residue unit: leave it locally Unknown — the
				// owner's record is merged by the coordinator before the
				// report that consumes it is assembled.
				pr.Verdict = Unknown
				sp.End("verdict", pr.Verdict, "cause", "unowned")
				return nil
			case replayed, cached:
				pr.Verdict = Verdict(rec.Verdict)
				pr.Env = unpackEnv(rec.Env, gen.declByName())
				pr.MCStats = rec.stats()
				pr.Attempts = rec.Attempts
				pr.Err = fail.Replayed(rec.CauseKind, rec.CauseMsg)
				pr.Flight = rec.Flight
				pr.Cached = from == cached
			}
			if pr.Err != nil {
				sp.End("verdict", pr.Verdict, "cause", pr.Err.Error())
			} else {
				sp.End("verdict", pr.Verdict,
					"steps", pr.MCStats.Steps, "peak-nodes", pr.MCStats.PeakNodes)
			}
			return nil
		}
	})
}

// decide model-checks one residue path into pr and returns its journal
// record and event detail. Root-context cancellation unwinds the whole
// run; any per-path failure — lowering, budget, per-path timeout,
// unsupported construct — degrades this one target to Unknown.
func (gen *Generator) decide(ctx context.Context, m *interp.Machine, ow *obs.Observer, pr *PathResult,
	i int, lower func() (*c2m.Result, error), conf Config) (*tgRecord, string, error) {

	low, err := lower()
	if err == nil {
		var res *mc.Result
		var env interp.Env
		var history []string
		res, env, history, err = gen.prove(ctx, m, low, pr.Path, i, conf)
		if len(history) > 1 {
			pr.Attempts = append(pr.Attempts, history...)
			ow.Emit(obs.BusEvent{Kind: obs.EvUnitRetried, Stage: "mc",
				Unit: "tg/" + pr.Path.Key(), Detail: fmt.Sprintf("attempts=%d", len(history))})
		}
		if err == nil {
			pr.MCStats = res.Stats
			pr.Verdict = Infeasible
			if res.Reachable {
				pr.Verdict = FoundByModelChecker
				pr.Env = env
			}
			return packTG(gen, pr, "", ""), fmt.Sprintf("steps=%d", res.Stats.Steps), nil
		}
	}
	if ctx.Err() != nil {
		return nil, "", fail.Context("testgen", ctx.Err())
	}
	pr.Verdict = Unknown
	pr.Err = fail.Attribute(err, "testgen", pr.Path.Key())
	return packTG(gen, pr, fail.KindLabel(pr.Err), pr.Err.Error()), pr.Err.Error(), nil
}

// prove checks one lowered path model under the retry policy and returns
// the verdict, the validated witness environment for a reachable path, and
// the attempt history. The symbolic query persists across attempts (its
// expensive state builds lazily on first use and is dropped on failure, so
// retries stay deterministic).
//
// Failover: a BDD node budget is deterministic — retrying the symbolic
// engine reproduces the blow-up — but a small input space can be
// enumerated exactly by the explicit engine, which checks the very model
// the symbolic engine just gave up on.
func (gen *Generator) prove(ctx context.Context, m *interp.Machine, low *c2m.Result, p paths.Path,
	i int, conf Config) (*mc.Result, interp.Env, []string, error) {

	q := mc.NewQuery(low.Model, conf.MC)
	defer q.Close()
	var res *mc.Result
	var env interp.Env
	attempts, err := retry.Do(ctx, conf.Retry, func(attempt int) error {
		if ferr := faults.Fire(ctx, "testgen.mc", i); ferr != nil {
			return fail.From("testgen", ferr)
		}
		var aerr error
		res, aerr = q.CheckCtx(ctx)
		if aerr != nil {
			return aerr
		}
		env = nil
		if res.Reachable {
			env, aerr = gen.witnessEnv(m, low, p, res.Witness, conf)
		}
		return aerr
	})
	history := retry.History(attempts)
	var lim *bdd.LimitError
	if err != nil && ctx.Err() == nil && errors.As(err, &lim) {
		if space := inputSpace(low.Model); space <= failoverMaxStates {
			history = append(history,
				fmt.Sprintf("failover: explicit engine (%.0f initial states)", space))
			obs.From(ctx).Count("testgen.failover.explicit", 1)
			if ferr := faults.Fire(ctx, "testgen.failover", i); ferr != nil {
				err = fail.From("testgen", ferr)
			} else if xres, xerr := mc.CheckExplicitCtx(ctx, low.Model, conf.MC); xerr != nil {
				err = xerr
			} else {
				res, env, err = xres, nil, nil
				if xres.Reachable {
					env, err = gen.witnessEnv(m, low, p, xres.Witness, conf)
				}
			}
		}
	}
	return res, env, history, err
}

// searchTarget runs one speculative GA search on a worker-private machine
// and returns its outcome; the caller decides delivery (and journaling).
// Incidental coverage is collected into the outcome — never into shared
// state — so the search is a pure function of (target, attempt seed) and
// the board can fold it deterministically. The context only feeds the
// search's Stop hook: cancellation cuts the search short, which is
// observable — the caller must abandon (never journal or deliver) an
// outcome produced under a dead context, so no timing-dependent result
// ever reaches a returned Report or a resumed run.
//
// pure (distributed workers) records the complete incidental coverage,
// unfiltered by the local board state: a scoped worker's board folds
// sibling outcomes as zero, so filtering against it would journal records
// that depend on which keys this worker happened to own.
func (gen *Generator) searchTarget(ctx context.Context, m *interp.Machine, board *gaBoard,
	targets []paths.Path, i, attempt int, conf Config, ow *obs.Observer, pure bool) *gaOutcome {

	p := targets[i]
	gaConf := conf.GA
	gaConf.Obs = ow
	gaConf.Seed = SeedForAttempt(conf.GA.Seed, board.keys[i], attempt)
	gaConf.Stop = func() bool { return ctx.Err() != nil }
	// Targets already covered by decided counted searches keep their board
	// environment no matter what this search observes; skip their checks.
	var done map[string]bool
	if !pure {
		done = board.snapshot()
	}
	o := &gaOutcome{cover: map[string]interp.Env{}}
	gaConf.OnTrace = func(env interp.Env, tr *interp.Trace) {
		for j, q := range targets {
			key := board.keys[j]
			if done[key] {
				continue
			}
			if _, ok := o.cover[key]; ok {
				continue
			}
			if paths.Covers(gen.G, tr, q) {
				o.cover[key] = env.Clone()
			}
		}
	}
	res := ga.Search(gen.G, m, gen.Inputs, p, conf.Base, gaConf)
	o.evals = res.Stats.Evaluations
	if res.Found {
		env := conf.Base.Clone()
		for d, v := range res.Env {
			env[d] = v
		}
		o.found = true
		o.env = env
	}
	return o
}

// lowerQuery builds the per-path query up to — but not including — the
// Section 3.2 optimisation pipeline: lowering at declared widths, the sound
// variable-initialisation pinning, and the per-trap program slice. The
// sliced-but-unoptimised model this returns is the verdict cache's key
// content: every downstream transformation — the optimisation pipeline,
// the engine's own idempotent re-slice — is a
// deterministic function of it plus config fields digested alongside the
// model, so a cached verdict's statistics are a pure function of the key.
// Crucially it costs a small fraction of the optimisation pipeline, which
// is what lets a warm run compute every path's key and still come out far
// ahead of re-proving.
func (gen *Generator) lowerQuery(p paths.Path, conf Config) (*c2m.Result, error) {
	low, err := c2m.LowerPath(gen.G, c2m.Options{}, p)
	if err != nil {
		return nil, err
	}
	model := low.Model
	// Pin non-inputs so model semantics match the interpreter's
	// zero-initialised locals, with base-env overrides (the paper's
	// variable-initialisation optimisation, applied soundly).
	for _, v := range model.Vars {
		if v.Input {
			continue
		}
		v.Init = tsys.InitConst
		v.InitVal = 0
		if d := low.DeclOf[v.ID]; d != nil {
			if val, ok := conf.Base[d]; ok {
				v.InitVal = val
			}
		}
	}
	opt.SliceTrap(model)
	return low, nil
}

// lowerPath builds the checked model for one path: lowerQuery plus the
// Section 3.2 optimisation pipeline. The result is a pure
// function of program + config, so the symbolic engine and an
// explicit-engine failover check the same model. Slicing before optimising
// means the expensive passes only see the trap-relevant fragment — and a
// verdict-cache hit, which is keyed on the lowerQuery model, skips the
// pipeline entirely.
func (gen *Generator) lowerPath(p paths.Path, conf Config) (*c2m.Result, error) {
	low, err := gen.lowerQuery(p, conf)
	if err != nil {
		return nil, err
	}
	opt.All(low.Model)
	return low, nil
}

// witnessEnv maps a trap-reaching witness back to an interpreter
// environment and validates it by replay: the witness must actually cover
// the path, whichever engine produced it.
func (gen *Generator) witnessEnv(m *interp.Machine, low *c2m.Result, p paths.Path,
	witness map[tsys.VarID]int64, conf Config) (interp.Env, error) {

	env := conf.Base.Clone()
	for id, val := range witness {
		if d := low.DeclOf[id]; d != nil {
			env[d] = val
		}
	}
	tr, err := m.Run(gen.G, env.Clone())
	if err != nil {
		return nil, fmt.Errorf("testgen: witness replay failed: %w", err)
	}
	if !paths.Covers(gen.G, tr, p) {
		return nil, fmt.Errorf("testgen: witness does not cover path %s", p.Key())
	}
	return env, nil
}

// inputSpace sizes a model's initial state space: the product of the free
// (non-pinned) variables' domains. It decides whether an explicit-engine
// failover is tractable.
func inputSpace(model *tsys.Model) float64 {
	total := 1.0
	for _, v := range model.Vars {
		if v.Init == tsys.InitConst {
			continue
		}
		var lo, hi int64
		switch {
		case v.HasRange:
			lo, hi = v.Lo, v.Hi
		case v.Signed:
			hi = int64(1)<<uint(v.Bits-1) - 1
			lo = -hi - 1
		default:
			lo, hi = 0, int64(1)<<uint(v.Bits)-1
		}
		total *= float64(hi-lo) + 1
		if total > 1e18 {
			return total
		}
	}
	return total
}

// Summary renders the report compactly.
func (rep *Report) Summary() string {
	byVerdict := map[Verdict]int{}
	for _, r := range rep.Results {
		byVerdict[r.Verdict]++
	}
	keys := []Verdict{FoundByHeuristic, FoundByModelChecker, Infeasible, Unknown}
	s := ""
	for _, k := range keys {
		if byVerdict[k] > 0 {
			s += fmt.Sprintf("%s:%d ", k, byVerdict[k])
		}
	}
	return fmt.Sprintf("%spaths:%d heuristic-share:%.0f%% ga-evals:%d mc-steps:%d",
		s, len(rep.Results), rep.HeuristicShare*100, rep.TotalGAEvals, rep.TotalMCSteps)
}
