package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"wcet"
	"wcet/internal/core"
	"wcet/internal/gen"
	"wcet/internal/model"
)

func wiperReport(t *testing.T) (*wcet.Report, *Oracle) {
	t.Helper()
	src := model.Wiper().Emit("wiper_control")
	rep, err := wcet.Analyze(src, wcet.Options{FuncName: "wiper_control", Bound: 8})
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOracle(src, "wiper_control", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rep, o
}

// TestCheckerFlagsCorruptReports is the checker's negative self-test: a
// wiper report passes, while a copy whose bound sits one cycle below the
// observed maximum and a copy with one feasible path relabelled infeasible
// are both flagged.
func TestCheckerFlagsCorruptReports(t *testing.T) {
	rep, o := wiperReport(t)
	if !o.Exhaustive || o.MaxCycles != 118 {
		t.Fatalf("wiper oracle: exhaustive %v, max %d cycles; want exhaustive, 118", o.Exhaustive, o.MaxCycles)
	}
	if bad := o.Check(rep); len(bad) > 0 {
		t.Fatalf("clean wiper report flagged: %v", bad)
	}
	if bad := o.Check(lowered(rep, o.MaxCycles-1)); len(bad) == 0 {
		t.Error("bound one cycle below the observed maximum not flagged")
	}
	i := o.coveredFound(rep)
	if i < 0 {
		t.Fatal("no found wiper path is executed by a check vector")
	}
	if bad := o.Check(relabelled(rep, i)); len(bad) == 0 {
		t.Errorf("feasible path %s relabelled infeasible not flagged", rep.TestGen.Results[i].Path.Key())
	}
	if err := o.SelfTest(rep); err != nil {
		t.Error(err)
	}
	if rep.WCET != 139 || rep.TestGen.Results[i].Verdict == wcet.Infeasible {
		t.Error("the corrupted copies modified the original report")
	}
	if bad := o.Check(rep); len(bad) > 0 {
		t.Errorf("original report flagged after the self-test: %v", bad)
	}
}

// TestNegativeGuardOnNonNegativeInput reproduces a model-checker defect
// the edit loop ran into: against an input whose declared range is
// non-negative, a guard with a negative constant (x < -7 over 0..100) can
// never hold, yet the model checker returns a witness for it instead of
// proving it infeasible. Replaying the witness through the interpreter
// catches the mismatch, so the path is left unknown and the report is
// degraded (unavailable on programs too large for the exhaustive
// fallback). The edit loop draws guard constants from the generator's own
// range (0..39), which never produces such a guard. This test fails until
// the model checker is fixed.
func TestNegativeGuardOnNonNegativeInput(t *testing.T) {
	for _, typ := range []string{"char", "int"} {
		src := "/*@ input */ /*@ range 0 100 */ " + typ + " x;\nchar y;\n" +
			"void f(void) {\n    if (x < -7) {\n        y = 1;\n    } else {\n        y = 2;\n    }\n}\n"
		rep, err := wcet.Analyze(src, wcet.Options{Bound: 8})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Soundness != wcet.BoundExact || rep.InfeasiblePaths != 1 {
			t.Errorf("%s x in 0..100, guard x < -7: %s", typ, rep.Summary())
		}
	}
}

// TestEditsKeepProgramsValid applies a run's worth of cumulative edits and
// checks that each changes exactly one line and still parses.
func TestEditsKeepProgramsValid(t *testing.T) {
	src := gen.Generate(gen.Config{Seed: 1, Branches: 30}).Source
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		next := applyEdit(src, i%2 == 1, rng)
		a, b := strings.Split(src, "\n"), strings.Split(next, "\n")
		diff := 0
		for k := range a {
			if a[k] != b[k] {
				diff++
			}
		}
		if diff > 1 {
			t.Fatalf("edit %d changed %d lines", i, diff)
		}
		if _, _, _, err := core.Frontend(next, editFunc); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		src = next
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json's metric lists and the
// metrics this command prints in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, command prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range bench.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, command prints %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
