package testgen

// Verdict-cache keys and codecs for the hybrid generator: the per-unit
// records that cross the journal boundary (gaRecord, tgRecord) also cross
// the persistent cache boundary, under content-addressed keys instead of
// run-local path keys.
//
// The two stages cache under very different keys because their outcomes
// have very different dependency cones:
//
//   - A stage-2 model-checker verdict is a function of the *checked query*
//     alone: the per-trap-sliced transition system plus the deterministic
//     model-checker options and budgets. The slice drops every edge whose
//     target cannot reach the path's trap and zero-widths the variables
//     only those edges touch, then renumbers locations canonically (BFS
//     from the initial location) — so an edit in a region a path cannot
//     see leaves its sliced model, and therefore its key, byte-identical,
//     and the stored verdict replays. The key digests the slice *before*
//     the Section 3.2 optimisation pipeline runs: the pipeline is a
//     deterministic function of the sliced model and of flags digested in
//     the key, so nothing is lost — and computing a key costs a small
//     fraction of the optimisation-plus-fixpoint work a hit skips. This is
//     what makes re-analysis after an edit incremental where it matters:
//     optimising and model checking are the expensive stages.
//
//   - A stage-1 GA outcome is a function of the *whole program* (fitness
//     evaluation interprets the full function; incidental coverage is
//     collected against every open target), so its key digests the
//     canonically printed program, the full target list and the GA
//     configuration. Any source edit misses — by design; re-running the
//     cheap heuristic stage is the price of its whole-program semantics.
//
// Keys deliberately digest budgets (MC step/state/node caps, per-call
// timeout, retry policy): a degraded or Unknown verdict is only reusable
// under the budgets that produced it, and making the budgets part of the
// identity enforces that by construction.

import (
	"sort"

	"wcet/internal/c2m"
	"wcet/internal/cc/ast"
	"wcet/internal/interp"
	"wcet/internal/paths"
	"wcet/internal/vcache"
)

// digestEnv folds an environment as sorted name=value pairs. Names, not
// declaration pointers, define the identity — the same convention the
// journal codec uses to serialize environments.
func digestEnv(h *vcache.Hasher, env interp.Env) {
	names := make([]string, 0, len(env))
	vals := make(map[string]int64, len(env))
	for d, v := range env {
		names = append(names, d.Name)
		vals[d.Name] = v
	}
	sort.Strings(names)
	h.Int(int64(len(names)))
	for _, n := range names {
		h.Str(n)
		h.Int(vals[n])
	}
}

// digestRetry folds the retry policy; attempt histories are part of every
// cached record, and they are only a pure function of the unit when the
// attempt budget that shaped them is part of the key.
func digestRetry(h *vcache.Hasher, c Config) {
	h.Int(int64(c.Retry.MaxAttempts))
	h.Int(int64(c.Retry.BackoffBase))
}

// gaCacheKeys builds the stage-1 keys for every target up front (one
// program print, shared across targets). Returns nil when the cache is
// absent.
func (gen *Generator) gaCacheKeys(vc *vcache.Store, keys []string, conf Config) []vcache.Key {
	if vc == nil {
		return nil
	}
	prog := ast.Print(gen.File)
	out := make([]vcache.Key, len(keys))
	for i := range keys {
		h := vcache.NewKey("wcet-vcache-ga-v1")
		h.Str(prog)
		h.Str(gen.Fn.Name)
		// The full target list in order: incidental coverage makes every
		// outcome depend on which other targets were open, and the board
		// fold decides in target order.
		h.Int(int64(len(keys)))
		for _, k := range keys {
			h.Str(k)
		}
		h.Int(int64(i))
		h.Str(keys[i])
		h.Int(conf.GA.Seed)
		h.Int(int64(conf.GA.Pop))
		h.Int(int64(conf.GA.MaxGens))
		h.Int(int64(conf.GA.Stagnation))
		h.Float(conf.GA.MutRate)
		h.Float(conf.GA.CrossRate)
		h.Int(int64(conf.GA.Tournament))
		h.Int(int64(conf.GA.MaxEvaluations))
		digestRetry(h, conf)
		digestEnv(h, conf.Base)
		out[i] = h.Sum()
	}
	return out
}

// mcCacheKey builds the stage-2 verdict key from a lowerQuery result: the
// sliced, unoptimised query's canonical digest plus every deterministic
// option the verdict, statistics, environment and attempts history are a
// function of. The slice is what buys cross-edit stability, and digesting
// *before* the optimisation pipeline is what makes the key cheap: a warm
// run computes it without paying opt.All, and everything downstream of the
// digested model (opt.All, the engine's own idempotent re-slice) is a
// deterministic function of it — so equal keys mean equal verdicts and
// equal statistics. The domain's version moves whenever the
// engine behind a query changes what its statistics mean (v3: loop-free
// queries are decided by the forward engine), so a store written by the
// previous engine misses instead of serving its Steps and PeakNodes.
func (gen *Generator) mcCacheKey(low *c2m.Result, conf Config) vcache.Key {
	h := vcache.NewKey("wcet-vcache-mc-v3")
	model := low.Model
	model.WriteDigest(h.Writer())
	// The structural digest excludes names, but cached environments are
	// serialized by name: fold the names so a pure rename can never serve
	// an environment with stale bindings.
	h.Int(int64(len(model.Vars)))
	for _, v := range model.Vars {
		h.Str(v.Name)
	}
	h.Int(int64(conf.MC.MaxSteps))
	h.Int(int64(conf.MC.MaxStates))
	h.Int(int64(conf.MC.MaxNodes))
	h.Int(int64(conf.MC.Timeout))
	digestRetry(h, conf)
	digestEnv(h, conf.Base)
	return h.Sum()
}

// cacheGet reads one record from the verdict cache.
func cacheGet[T any](vc *vcache.Store, k vcache.Key) (*T, bool) {
	var r T
	if !vc.Get(k, &r) {
		return nil, false
	}
	return &r, true
}

// validEnv replays a cached covering environment on the current program
// and requires it to still cover the target path. Cached Found verdicts
// may cross program edits (their sliced query was identical), so the
// environment gets the same concrete re-validation a fresh witness gets in
// witnessEnv — a stale record fails closed into a recompute, never into a
// wrong report.
func (gen *Generator) validEnv(m *interp.Machine, p paths.Path, env interp.Env) bool {
	if env == nil {
		return false
	}
	tr, err := m.Run(gen.G, env.Clone())
	if err != nil {
		return false
	}
	return paths.Covers(gen.G, tr, p)
}
