package main

import (
	"strings"

	"wcet"
	"wcet/internal/obs"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workloads it should move it on
// (bypass workloads in parentheses).
type layerMetric struct {
	name, unit string
	moves      string
}

// layerMetrics lists every per-layer metric in report order. BENCHMARK.json
// declares the same names and units (TestLayerMetricsMatchBenchmarkJSON).
var layerMetrics = []layerMetric{
	{"frontend.s", "s", "analysis_s on all workloads (canary, <1%)"},
	{"partition.s", "s", "analysis_s on all workloads"},
	{"partition.units", "count", "analysis_s on all workloads"},
	{"targets.count", "count", "analysis_s on all workloads (sets testgen work)"},
	{"testgen.s", "s", "analysis_s on all workloads (ga.s + mc.s)"},
	{"ga.s", "s", "analysis_s, cpu_s on wiper, edit-loop (bypass: gen40)"},
	{"ga.searches", "count", "analysis_s, cpu_s on wiper, edit-loop (bypass: gen40)"},
	{"ga.evaluations", "count", "analysis_s, cpu_s on wiper, edit-loop (bypass: gen40)"},
	{"ga.wasted_frac", "ratio", "analysis_s, cpu_s on wiper, edit-loop (bypass: gen40)"},
	{"testgen.heuristic_share", "ratio", "analysis_s, cpu_s on wiper, edit-loop (bypass: gen40)"},
	{"mc.s", "s", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"mc.calls", "count", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"mc.busy_s", "s", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"mc.path_p50_ms", "ms", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"mc.path_p90_ms", "ms", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"mc.engine_frac", "ratio", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"mc.steps", "count", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"mc.reorders", "count", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"mc.infeasible_frac", "ratio", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"bdd.ite_hit_frac", "ratio", "analysis_s, cpu_s on gen40 (bypass: wiper, edit-loop)"},
	{"mc.peak_nodes", "count", "peak_rss_mb on gen40"},
	{"par.utilization", "ratio", "gap between analysis_s and cpu_s/GOMAXPROCS on gen40"},
	{"compile.s", "s", "analysis_s on all workloads (small)"},
	{"measure.s", "s", "analysis_s on all workloads (small)"},
	{"measure.runs", "count", "analysis_s on all workloads (small)"},
	{"schema.s", "s", "analysis_s on all workloads (small)"},
	{"journal.appends", "count", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"journal.bytes", "bytes", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"journal.open_s", "s", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"vcache.open_s", "s", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"vcache.hits", "count", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"vcache.misses", "count", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"vcache.hit_frac", "ratio", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"vcache.mc_hits", "count", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"vcache.mc_misses", "count", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"vcache.bytes_read", "bytes", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"vcache.bytes_written", "bytes", "analysis_s on edit-loop (bypass: wiper, gen40)"},
	{"stages.coverage_pct", "%", "share of traced analysis wall time inside a stage span"},
	{"trace.overhead_pct", "%", "traced vs untraced analysis_s (median)"},
}

// stageNames are the pipeline's stage spans, in pipeline order.
var stageNames = []string{"frontend", "partition", "targets", "testgen", "compile", "measure", "schema"}

// layerSample reads the per-layer metrics of one traced analysis from the
// spans and counters the pipeline emitted into o, the benchmark's own
// spans, and the lane's extra readings. Metrics a workload does not
// exercise (journal and cache traffic on unjournaled, uncached runs) are
// absent and report 0. trace.overhead_pct is computed per run, not per
// analysis.
func layerSample(o *wcet.Observer, s sample) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s.extra {
		out[k] = v
	}
	snap := map[string]obs.MetricSnapshot{}
	for _, m := range o.Metrics().Snapshot(true) {
		snap[m.Name] = m
	}
	val := func(name string) float64 { return float64(snap[name].Value) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var analyzeNS, stageNS, busyNS, journalNS int64
	var tgStart, tgEnd, gaEnd int64
	var mcPaths []float64
	stage := map[string]int64{}
	infeasible := map[string]bool{}
	for _, r := range s.rep.TestGen.Results {
		if r.Verdict == wcet.Infeasible {
			infeasible[r.Path.Key()] = true
		}
	}
	var searches, wasted float64
	for _, ev := range o.Trace().Events() {
		switch {
		case ev.Cat == "stage":
			stage[ev.Name] += ev.DurNS
			stageNS += ev.DurNS
			if ev.Name == "testgen" {
				tgStart, tgEnd = ev.StartNS, ev.StartNS+ev.DurNS
			}
		case ev.Cat == "bench" && ev.Name == "analyze":
			analyzeNS += ev.DurNS
		case ev.Cat == "bench" && strings.HasPrefix(ev.Name, "journal."):
			journalNS += ev.DurNS
		case ev.Name == "ga.search":
			searches++
			gaEnd = max(gaEnd, ev.StartNS+ev.DurNS)
			for _, a := range ev.Args {
				if a.K == "path" && infeasible[a.V] {
					wasted++
				}
			}
		case ev.Name == "mc.path":
			busyNS += ev.DurNS
			mcPaths = append(mcPaths, float64(ev.DurNS)/1e6)
		}
	}
	for _, n := range stageNames {
		out[n+".s"] = float64(stage[n]) / 1e9
	}
	// The GA stage runs from the testgen span's start to the end of its last
	// search; everything after it (cache prepass, lowering, model checking)
	// is the model-checking stage.
	gaEnd = min(max(gaEnd, tgStart), tgEnd)
	out["ga.s"] = float64(gaEnd-tgStart) / 1e9
	out["mc.s"] = float64(tgEnd-gaEnd) / 1e9
	out["partition.units"] = val("partition.units")
	out["targets.count"] = val("testgen.targets")
	out["ga.searches"] = val("ga.searches")
	out["ga.evaluations"] = val("testgen.ga.evaluations")
	out["ga.wasted_frac"] = ratio(wasted, searches)
	out["testgen.heuristic_share"] = s.rep.TestGen.HeuristicShare
	out["mc.calls"] = val("mc.calls")
	out["mc.busy_s"] = float64(busyNS) / 1e9
	out["mc.path_p50_ms"] = percentile(mcPaths, 50)
	out["mc.path_p90_ms"] = percentile(mcPaths, 90)
	out["mc.engine_frac"] = ratio(float64(snap["mc.duration_ns"].Sum), float64(busyNS))
	out["mc.steps"] = val("mc.steps")
	out["mc.reorders"] = val("mc.reorders")
	out["mc.infeasible_frac"] = ratio(val("testgen.paths.infeasible"),
		val("testgen.paths.infeasible")+val("testgen.paths.model_checker"))
	out["bdd.ite_hit_frac"] = ratio(val("bdd.ite.hits"), val("bdd.ite.lookups"))
	out["mc.peak_nodes"] = val("mc.peak_nodes")
	util := snap["par.pool.utilization_bp"]
	out["par.utilization"] = ratio(float64(util.Sum), float64(util.Count)*10000)
	out["measure.runs"] = val("measure.runs")
	out["journal.open_s"] = float64(journalNS) / 1e9
	out["vcache.hits"] = val("vcache.hits")
	out["vcache.misses"] = val("vcache.misses")
	out["vcache.hit_frac"] = ratio(val("vcache.hits"), val("vcache.hits")+val("vcache.misses"))
	out["vcache.bytes_read"] = val("vcache.bytes_read")
	out["vcache.bytes_written"] = val("vcache.bytes_written")
	out["stages.coverage_pct"] = 100 * ratio(float64(stageNS), float64(analyzeNS))
	return out
}
