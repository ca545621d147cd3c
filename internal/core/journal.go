// Run-journal binding: the fingerprint that ties a journal to one
// (program, options) identity, so a resumed analysis never replays records
// a different analysis produced.
package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"wcet/internal/cc/ast"
	"wcet/internal/cfg"
	"wcet/internal/testgen"
)

// fingerprint digests everything a journaled unit's outcome is a function
// of: the program (canonically printed), the analysed function, and every
// option a GA search or model-checker verdict depends on — partition bound
// (it decides the targets), generator configuration (GA scalars,
// model-checker budgets, base environment, retry policy) and the per-call
// model-checker timeout.
// Workers is deliberately excluded: results are worker-count invariant by
// construction, so a run started with -workers 8 may resume with
// -workers 1 and vice versa. Function fields (Stop, OnTrace, Obs) are
// excluded for the same reason they are banned from reports: they carry no
// deterministic identity.
//
// Version history: v1 omitted the symbolic levers (NoSlice/NoReorder/
// NoPool), the base environment, the order-book presence and the cost
// model's per-op and per-external maps — each a latent splice: a resume
// across those settings would merge runs with different degradation
// ledgers or measurements. v2 closes the class; the reflection-based
// coverage test (fingerprint_coverage_test.go) keeps it closed. v3 marks
// the switch of loop-free path queries to the forward engine: a journal
// written under reachability carries that engine's Steps and PeakNodes,
// so it resets instead of splicing them into a forward-engine report. v4
// journals generation units only: measurement is recomputed on every run,
// so the exhaustive settings and the simulator's cost model left the
// identity, and a journal now resumes across them. v5 drops the terms of
// settings that no longer exist — the symbolic levers, the order-book
// presence, the optimise switch and the failover cap: the engine
// configuration is fixed and only its budgets remain in the identity.
func fingerprint(file *ast.File, fn *ast.FuncDecl, g *cfg.Graph, opt Options, tg testgen.Config) string {
	h := fnv.New64a()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	put("wcet-journal-v5\x00")
	io.WriteString(h, ast.Print(file))
	put("\x00fn=%s blocks=%d\x00", fn.Name, g.NumNodes())
	put("bound=%d mctimeout=%d\x00", opt.Bound, opt.MCTimeout)
	put("ga seed=%d pop=%d gens=%d stag=%d mut=%g cross=%g tour=%d maxeval=%d\x00",
		tg.GA.Seed, tg.GA.Pop, tg.GA.MaxGens, tg.GA.Stagnation,
		tg.GA.MutRate, tg.GA.CrossRate, tg.GA.Tournament, tg.GA.MaxEvaluations)
	put("tg skipga=%v skipmc=%v\x00", tg.SkipGA, tg.SkipMC)
	put("mc steps=%d states=%d nodes=%d timeout=%d\x00",
		tg.MC.MaxSteps, tg.MC.MaxStates, tg.MC.MaxNodes, tg.MC.Timeout)
	// The base environment pins non-input initial values in every checked
	// model and seeds every recorded environment; serialized by name like
	// the journal codec's environments.
	names := make([]string, 0, len(tg.Base))
	vals := make(map[string]int64, len(tg.Base))
	for d, v := range tg.Base {
		names = append(names, d.Name)
		vals[d.Name] = v
	}
	sort.Strings(names)
	put("base n=%d\x00", len(names))
	for _, n := range names {
		put("%s=%d\x00", n, vals[n])
	}
	put("retry attempts=%d backoff=%d\x00", tg.Retry.MaxAttempts, tg.Retry.BackoffBase)
	return fmt.Sprintf("%016x", h.Sum64())
}
