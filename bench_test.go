package wcet

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment through
// internal/experiments and reports the paper-comparable quantities as
// custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reprints the evaluation. EXPERIMENTS.md records paper-vs-measured.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"wcet/internal/cfg"
	"wcet/internal/experiments"
	"wcet/internal/ga"
	"wcet/internal/gen"
	"wcet/internal/model"
	"wcet/internal/partition"
	"wcet/internal/testgen"
)

// cfgCount wraps an integer bound.
func cfgCount(v int64) cfg.Count { return cfg.NewCount(v) }

// BenchmarkTable1 regenerates Table 1: measurement effort (instrumentation
// points, measurements) over path bound b on the Figure 1 program.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper: b=1 → (22, 11); b=2..5 → (16, 9); b=6,7 → (2, 6).
	b.ReportMetric(float64(rows[0].IP), "ip(b=1)")
	b.ReportMetric(float64(rows[0].M), "m(b=1)")
	b.ReportMetric(float64(rows[1].IP), "ip(b=2)")
	b.ReportMetric(float64(rows[5].IP), "ip(b=6)")
	b.ReportMetric(float64(rows[5].M), "m(b=6)")
	if !testing.Short() {
		b.Logf("\n%s", experiments.RenderTable1(rows))
	}
}

// sweepOnce runs the Figure 2/3 workload at the paper's scale (~300
// branches, ~850 blocks) and caches nothing: the partitioning sweep itself
// is the measured operation.
func sweepOnce(b *testing.B) *experiments.SweepResult {
	b.Helper()
	res, err := experiments.Sweep(experiments.SweepConfig{Seed: 42, Branches: 300, Points: 400})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigure2 regenerates Figure 2: instrumentation points over the
// path bound (log-spaced) on the synthetic industrial application.
func BenchmarkFigure2(b *testing.B) {
	var res *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		res = sweepOnce(b)
	}
	// Paper: 857 blocks → ip(b=1) = 1714, falling to 2.
	b.ReportMetric(float64(res.Blocks), "blocks")
	b.ReportMetric(float64(res.Points[0].IP), "ip(b=1)")
	b.ReportMetric(float64(res.Points[len(res.Points)-1].IP), "ip(end)")
	if !testing.Short() {
		b.Logf("\n%s", experiments.RenderFigure2(res))
	}
}

// BenchmarkFigure3 regenerates Figure 3: the measurement count explosion as
// instrumentation points shrink toward end-to-end measurement.
func BenchmarkFigure3(b *testing.B) {
	var res *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		res = sweepOnce(b)
	}
	first := res.Points[0]
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(float64(first.IP), "ip(block-level)")
	b.ReportMetric(first.M.Float64(), "m(block-level)")
	b.ReportMetric(float64(last.IP), "ip(end-to-end)")
	b.ReportMetric(last.M.Float64(), "m(end-to-end)")
	if !testing.Short() {
		b.Logf("\n%s", experiments.RenderFigure3(res))
	}
}

// BenchmarkTable2 regenerates Table 2: model-checking time, memory and
// steps for the unoptimised translation, the full optimisation pipeline,
// and each single Section 3.2 optimisation.
func BenchmarkTable2(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	byName := map[string]experiments.Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	unopt := byName["unoptimized"]
	all := byName["all optimisations used"]
	// Paper: 283.4s/229MB/28 steps unoptimised → 2.2s/26MB/13 steps with
	// all optimisations (129× time, 8.6× memory). Shapes, not absolutes.
	b.ReportMetric(float64(unopt.Time.Milliseconds()), "unopt-ms")
	b.ReportMetric(float64(all.Time.Milliseconds()), "allopt-ms")
	b.ReportMetric(float64(unopt.MemoryKB), "unopt-kb")
	b.ReportMetric(float64(all.MemoryKB), "allopt-kb")
	b.ReportMetric(float64(unopt.Steps), "unopt-steps")
	b.ReportMetric(float64(all.Steps), "allopt-steps")
	b.ReportMetric(float64(unopt.PeakNodes), "unopt-nodes")
	b.ReportMetric(float64(all.PeakNodes), "allopt-nodes")
	if !testing.Short() {
		b.Logf("\n%s", experiments.RenderTable2(rows))
	}
}

// BenchmarkCaseStudy regenerates Section 4: the wiper-control WCET,
// exhaustive end-to-end versus the partition-based timing-schema bound.
func BenchmarkCaseStudy(b *testing.B) {
	var res *experiments.CaseStudyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.CaseStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper: exhaustive 250 cycles, bound 274 cycles (+9.6%).
	b.ReportMetric(float64(res.ExhaustiveWCET), "exhaustive-cycles")
	b.ReportMetric(float64(res.Bound), "bound-cycles")
	b.ReportMetric(res.Overestimate()*100, "overestimate-%")
	b.ReportMetric(res.HeuristicShare*100, "heuristic-share-%")
	b.ReportMetric(float64(res.Report.TestGen.PeakMCNodes), "peak-mc-nodes")
	if !testing.Short() {
		b.Logf("\n%s", experiments.RenderCaseStudy(res))
	}
}

// BenchmarkHybridTestGen measures the Section 3 generation pipeline on the
// Table 2 program: GA first, model checker for the residue — the paper
// expects heuristics to produce well over 90% of the test data.
func BenchmarkHybridTestGen(b *testing.B) {
	var share float64
	var gaEvals, mcSteps int
	for i := 0; i < b.N; i++ {
		rep, err := Analyze(experiments.Table2Source, Options{
			FuncName: "control",
			Bound:    6,
			TestGen: testgen.Config{
				GA: ga.Config{Seed: 7, Pop: 48, MaxGens: 80, Stagnation: 20},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		share = rep.TestGen.HeuristicShare
		gaEvals = rep.TestGen.TotalGAEvals
		mcSteps = rep.TestGen.TotalMCSteps
	}
	b.ReportMetric(share*100, "heuristic-share-%")
	b.ReportMetric(float64(gaEvals), "ga-evals")
	b.ReportMetric(float64(mcSteps), "mc-steps")
}

// BenchmarkObserverOverhead measures the observability layer's cost on the
// hybrid generation pipeline: the same Table 2 workload with no observer
// (the nil-check fast path every un-observed run takes) and with a full
// observer recording spans, metrics and canonical events. The overhead-%
// metric is the enabled run's wall time over the disabled run's, minus one
// — the no-op path must stay under 2%.
func BenchmarkObserverOverhead(b *testing.B) {
	run := func(ob *Observer) {
		_, err := Analyze(experiments.Table2Source, Options{
			FuncName: "control",
			Bound:    6,
			Obs:      ob,
			TestGen: testgen.Config{
				GA: ga.Config{Seed: 7, Pop: 48, MaxGens: 80, Stagnation: 20},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	disabled := serialBaseline(b, func() { run(nil) })
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(nil)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			run(NewObserver(ObserverConfig{}))
		}
		perOp := time.Since(start) / time.Duration(b.N)
		b.ReportMetric((perOp.Seconds()/disabled.Seconds()-1)*100, "overhead-%")
	})
}

// BenchmarkJournalOverhead measures the run journal's cost on the Section 4
// wiper pipeline: the identical analysis with journaling off and on, using
// a fresh journal file per iteration so every unit of work is appended and
// none replayed — the worst case for write overhead. The two variants run
// interleaved (plain, journaled, plain, journaled, …) so slow drift on a
// shared host cancels out of the ratio. The overhead-% metric is the
// journaled runs' wall time over the plain runs', minus one; the journal is
// an OS-buffered append-only log, so crash safety must cost under 3%.
func BenchmarkJournalOverhead(b *testing.B) {
	src := model.Wiper().Emit("wiper_control")
	run := func(j *Journal) {
		_, err := Analyze(src, Options{
			FuncName:   "wiper_control",
			Bound:      8,
			Exhaustive: true,
			Journal:    j,
			TestGen: testgen.Config{
				GA: ga.Config{Seed: 2005, Pop: 48, MaxGens: 80, Stagnation: 20},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	journals := 0
	runJournaled := func() {
		journals++
		j, err := OpenJournal(filepath.Join(dir, fmt.Sprintf("bench-%d.journal", journals)))
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		run(j)
	}
	run(nil) // warm-up: first run pays parser/GA cache misses
	var plain, journaled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		run(nil)
		t1 := time.Now()
		runJournaled()
		plain += t1.Sub(t0)
		journaled += time.Since(t1)
	}
	b.ReportMetric(float64(plain.Nanoseconds())/float64(b.N), "plain-ns/op")
	b.ReportMetric(float64(journaled.Nanoseconds())/float64(b.N), "journal-ns/op")
	b.ReportMetric((journaled.Seconds()/plain.Seconds()-1)*100, "overhead-%")
}

// BenchmarkDistributed is the interleaved A/B for the distributed work
// ledger on the Section 4 wiper pipeline: a single-process journaled run
// versus a 4-worker distributed run (in-process workers via the default
// launcher, a fresh journal per iteration so every unit is computed, none
// replayed), timed back to back so machine drift hits both legs equally.
// Both legs pay journal appends, so the ratio isolates the coordination
// cost — per-round frontier planning, leasing, merging, scoped replay
// passes — against the fan-out win. At wiper scale (a ~90ms pipeline) the
// coordination dominates and speedup sits well below 1: the ledger buys
// fault tolerance for long runs, not latency for short ones. The metric
// is a regression canary for that overhead, not a >1 claim. Each
// iteration also asserts the two canonical reports are byte-identical,
// the ledger's core guarantee.
func BenchmarkDistributed(b *testing.B) {
	src := model.Wiper().Emit("wiper_control")
	opt := Options{
		FuncName:   "wiper_control",
		Bound:      8,
		Exhaustive: true,
		TestGen: testgen.Config{
			GA: ga.Config{Seed: 2005, Pop: 48, MaxGens: 80, Stagnation: 20},
		},
	}
	spec, err := NewLedgerSpec(src, opt)
	if err != nil {
		b.Fatal(err)
	}
	canonical := func(rep *Report) []byte {
		var buf bytes.Buffer
		if err := rep.WriteCanonical(&buf); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	dir := b.TempDir()
	iter := 0
	single := func() *Report {
		j, err := OpenJournal(filepath.Join(dir, fmt.Sprintf("single-%d.journal", iter)))
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		o := opt
		o.Journal = j
		rep, err := Analyze(src, o)
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	distributed := func() *Report {
		res, err := Distribute(context.Background(), spec, LedgerConfig{
			JournalPath: filepath.Join(dir, fmt.Sprintf("dist-%d.journal", iter)),
			Workers:     4,
			// The default 25ms lease poll is tuned for long multi-process
			// runs; at benchmark scale it would drown the coordination cost
			// in idle sleeps.
			PollInterval: 2 * time.Millisecond,
			LeaseTicks:   2500,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Quarantined) != 0 {
			b.Fatalf("healthy benchmark run quarantined %v", res.Quarantined)
		}
		return res.Report
	}
	single() // warm-up: first run pays parser/GA cache misses
	var singleT, distT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter++
		t0 := time.Now()
		repS := single()
		t1 := time.Now()
		repD := distributed()
		distT += time.Since(t1)
		singleT += t1.Sub(t0)
		if !bytes.Equal(canonical(repS), canonical(repD)) {
			b.Fatal("distributed report diverges from the single-process report")
		}
	}
	b.ReportMetric(float64(singleT.Milliseconds())/float64(b.N), "single-ms/op")
	b.ReportMetric(float64(distT.Milliseconds())/float64(b.N), "dist-ms/op")
	b.ReportMetric(singleT.Seconds()/distT.Seconds(), "speedup")
}

// BenchmarkGeneralPartitioning is the ablation for the paper's announced
// extension: the dominator-region ("general") partitioning against the
// simple AST-based one, at the same path bound, on the paper-scale
// synthetic application. The general variant should need fewer
// instrumentation points at comparable measurement cost.
func BenchmarkGeneralPartitioning(b *testing.B) {
	prog := gen.Generate(gen.Config{Seed: 42, Branches: 300})
	g, err := experiments.BuildGraph(prog.Source, prog.FuncName)
	if err != nil {
		b.Fatal(err)
	}
	bound := cfgCount(16)
	tree := partition.MustBuildTree(g)
	var simple, general *partition.Plan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simple = partition.Partition(g, tree, bound)
		general = partition.GeneralPartition(g, bound)
	}
	b.ReportMetric(float64(simple.IP), "simple-ip")
	b.ReportMetric(float64(general.IP), "general-ip")
	b.ReportMetric(simple.M.Float64(), "simple-m")
	b.ReportMetric(general.M.Float64(), "general-m")
	if general.IP > simple.IP {
		b.Fatalf("general partitioning (%d ip) worse than simple (%d ip)", general.IP, simple.IP)
	}
}

// BenchmarkPartitionSweepScaling is an ablation: partitioning cost as the
// application grows (the paper's claim that the simple partitioning copes
// with real-sized code).
func BenchmarkPartitionSweepScaling(b *testing.B) {
	for _, branches := range []int{75, 150, 300} {
		b.Run(sizeName(branches), func(b *testing.B) {
			prog := gen.Generate(gen.Config{Seed: 9, Branches: branches})
			g, err := experiments.BuildGraph(prog.Source, prog.FuncName)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bounds := partition.DefaultBounds(g, 200)
				if _, err := partition.Sweep(g, bounds); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.NumNodes()), "blocks")
		})
	}
}

// workerCounts is the fan-out axis of the parallel benchmarks: serial
// baseline, two workers, and one worker per CPU (deduplicated).
func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkHybridTestGenParallel measures the parallel analysis engine on
// the hybrid generation pipeline: the same Table 2 workload as
// BenchmarkHybridTestGen, fanned over 1, 2, and GOMAXPROCS workers. The
// speedup metric is wall time at Workers=1 over wall time at Workers=w —
// ≈1.0 on a single-CPU host, approaching w on multi-core runners. The
// reports are identical for every worker count (see the determinism tests),
// so the speedup is free of result drift.
func BenchmarkHybridTestGenParallel(b *testing.B) {
	run := func(workers int) {
		_, err := Analyze(experiments.Table2Source, Options{
			FuncName: "control",
			Bound:    6,
			Workers:  workers,
			TestGen: testgen.Config{
				GA: ga.Config{Seed: 7, Pop: 48, MaxGens: 80, Stagnation: 20},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	baseline := serialBaseline(b, func() { run(1) })
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				run(w)
			}
			perOp := time.Since(start) / time.Duration(b.N)
			b.ReportMetric(baseline.Seconds()/perOp.Seconds(), "speedup")
		})
	}
}

// BenchmarkSweepParallel measures the partitioning sweep (the Figure 2/3
// series) over the worker axis on the paper-scale synthetic application.
func BenchmarkSweepParallel(b *testing.B) {
	run := func(workers int) {
		_, err := experiments.Sweep(experiments.SweepConfig{
			Seed: 42, Branches: 300, Points: 400, Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	baseline := serialBaseline(b, func() { run(1) })
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				run(w)
			}
			perOp := time.Since(start) / time.Duration(b.N)
			b.ReportMetric(baseline.Seconds()/perOp.Seconds(), "speedup")
		})
	}
}

// serialBaseline times one warm serial run of op — the denominator of the
// speedup metric, measured once so every sub-benchmark shares it.
func serialBaseline(b *testing.B, op func()) time.Duration {
	b.Helper()
	op() // warm-up: first run pays parser/GA cache misses
	start := time.Now()
	op()
	return time.Since(start)
}

// BenchmarkVerdictCacheColdWarm measures what the persistent verdict cache
// buys on the edit-analyze loop it exists for: the Section 4 wiper program
// is analysed once to populate a store, one CFG region's straight-line
// code is edited (the POSTWASH self-loop arm's pump command — an output
// assignment, never read back into control flow), and the edited program
// is re-analysed cold (no cache) and warm (against a fresh copy of the
// pre-edit store) back to back, so machine drift hits both legs equally.
//
// An output-assignment edit is the per-trap slice's target case: the slice
// zero-widths trap-irrelevant variables out of every query, so each path's
// key is unchanged and every verdict replays. A guard edit instead misses
// on exactly the paths whose sliced query can see it — the partial-hit
// regime internal/testgen's TestVCacheHitsSurviveEdit pins down.
//
// SkipGA makes the run model-checker dominated — the stage the cache
// memoizes; stage-1 GA keys digest the whole program and miss across any
// edit by design. Every warm leg starts from a byte-copy of the pre-edit
// store so it always measures the first-analysis-after-the-edit case, and
// its report must be byte-identical (WriteCanonical) to the cold leg's.
// speedup-x is cold over warm; the bar is 5x.
func BenchmarkVerdictCacheColdWarm(b *testing.B) {
	srcA := model.Wiper().Emit("wiper_control")
	const arm = "        } else {\n            next_state = 7;\n            motor = 1;\n            pump = 0;\n        }"
	if strings.Count(srcA, arm) != 1 {
		b.Fatalf("POSTWASH self-loop arm not unique in the wiper source")
	}
	srcB := strings.Replace(srcA, arm, strings.Replace(arm, "pump = 0;", "pump = 2;", 1), 1)
	run := func(src string, vc *Cache) *Report {
		rep, err := Analyze(src, Options{
			FuncName: "wiper_control",
			Bound:    8,
			Cache:    vc,
			TestGen:  testgen.Config{SkipGA: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	dir := b.TempDir()
	seedDir := filepath.Join(dir, "seed")
	vc, err := OpenCache(seedDir)
	if err != nil {
		b.Fatal(err)
	}
	run(srcA, vc) // populate: the pre-edit analysis, untimed
	canonical := func(rep *Report) []byte {
		var buf bytes.Buffer
		if err := rep.WriteCanonical(&buf); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	run(srcB, nil) // warm-up: pays parser cache misses once
	copies := 0
	warmStore := func() *Cache {
		copies++
		dst := filepath.Join(dir, fmt.Sprintf("warm-%d", copies))
		if err := copyTree(seedDir, dst); err != nil {
			b.Fatal(err)
		}
		c, err := OpenCache(dst)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	var cold, warm time.Duration
	var cachedUnits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc := warmStore() // untimed: measured legs see only analysis cost
		t0 := time.Now()
		coldRep := run(srcB, nil)
		t1 := time.Now()
		warmRep := run(srcB, wc)
		warm += time.Since(t1)
		cold += t1.Sub(t0)
		if !bytes.Equal(canonical(coldRep), canonical(warmRep)) {
			b.Fatal("warm-cache report diverges from the cold report")
		}
		if warmRep.CachedUnits == 0 {
			b.Fatal("warm run replayed nothing from the verdict store")
		}
		cachedUnits = warmRep.CachedUnits
	}
	b.ReportMetric(float64(cold.Milliseconds())/float64(b.N), "cold-ms/op")
	b.ReportMetric(float64(warm.Milliseconds())/float64(b.N), "warm-ms/op")
	b.ReportMetric(cold.Seconds()/warm.Seconds(), "speedup-x")
	b.ReportMetric(float64(cachedUnits), "cached-units")
}

// copyTree byte-copies a directory tree — fresh verdict-store snapshots for
// the warm benchmark legs.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func sizeName(branches int) string {
	switch {
	case branches <= 100:
		return "small"
	case branches <= 200:
		return "medium"
	}
	return "paper-scale"
}
