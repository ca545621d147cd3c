package mc_test

import (
	"testing"
	"time"

	"wcet/internal/experiments"
	"wcet/internal/mc"
)

// BenchmarkSymbolicLevers is the interleaved A/B for the three symbolic
// speed levers — per-trap slicing, dynamic variable reordering and manager
// pooling — on the heaviest query of the evaluation, the unoptimised
// Table 2 model. Each iteration times the before configuration (every
// lever off, the engine before the levers) and the after configuration
// (the default engine) back to back, so machine drift hits both sides
// equally. speedup-x is before over after.
func BenchmarkSymbolicLevers(b *testing.B) {
	m, err := experiments.Table2UnoptModel()
	if err != nil {
		b.Fatal(err)
	}
	check := func(run func() (*mc.Result, error)) {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reachable {
			b.Fatal("table 2 target unreachable")
		}
	}
	opt := mc.Options{MaxSteps: 5000}
	levered := func() (*mc.Result, error) { return mc.CheckSymbolic(m, opt) }
	baseline := func() (*mc.Result, error) { return mc.CheckBaseline(m, opt) }
	check(levered) // warm-up: pays cache misses once
	var before, after time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		check(baseline)
		t1 := time.Now()
		check(levered)
		before += t1.Sub(t0)
		after += time.Since(t1)
	}
	b.ReportMetric(float64(before.Milliseconds())/float64(b.N), "before-ms/op")
	b.ReportMetric(float64(after.Milliseconds())/float64(b.N), "after-ms/op")
	b.ReportMetric(before.Seconds()/after.Seconds(), "speedup-x")
}
