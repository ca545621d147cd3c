package experiments

import (
	"reflect"
	"testing"

	"wcet/internal/cc/parser"
	"wcet/internal/cc/sem"
	"wcet/internal/cfg"
	"wcet/internal/codegen"
	"wcet/internal/core"
	"wcet/internal/ga"
	"wcet/internal/interp"
	"wcet/internal/measure"
	"wcet/internal/model"
	"wcet/internal/partition"
	"wcet/internal/sim"
	"wcet/internal/testgen"
)

// The parallel analysis engine guarantees that every pipeline stage
// produces results independent of the worker count. These tests pin that
// guarantee on the paper's wiper-controller case study: Workers=1 and
// Workers=8 must give deep-equal reports. Wall-clock durations inside
// mc.Stats are the single documented exception and are zeroed before
// comparison.

func zeroDurations(rep *testgen.Report) {
	for i := range rep.Results {
		rep.Results[i].MCStats.Duration = 0
	}
}

func wiperTestGenConfig(workers int) testgen.Config {
	return testgen.Config{
		GA:      ga.Config{Seed: 2005, Pop: 48, MaxGens: 80, Stagnation: 20},
		Workers: workers,
	}
}

func TestWiperPipelineDeterministicAcrossWorkers(t *testing.T) {
	src := model.Wiper().Emit("wiper_control")
	file, err := parser.ParseFile("wiper.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sem.Check(file); err != nil {
		t.Fatal(err)
	}
	fn := file.Func("wiper_control")
	g, err := cfg.Build(fn)
	if err != nil {
		t.Fatal(err)
	}

	// Stage: hybrid test-data generation over the case-study plan targets
	// (branch coverage exercises both GA and model-checker paths).
	gen := testgen.New(file, fn, g)
	targets := testgen.BranchTargets(g)
	genRun := func(workers int) *testgen.Report {
		rep, err := gen.Generate(targets, wiperTestGenConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		zeroDurations(rep)
		return rep
	}
	genSerial := genRun(1)
	t.Run("Generate", func(t *testing.T) {
		if !reflect.DeepEqual(genSerial, genRun(8)) {
			t.Error("testgen.Generate differs between Workers=1 and Workers=8")
		}
	})

	// Stage: measurement campaign over the generated vectors.
	var envs []interp.Env
	for _, r := range genSerial.Results {
		if r.Env != nil {
			envs = append(envs, r.Env)
		}
	}
	img, err := codegen.Compile(g, file)
	if err != nil {
		t.Fatal(err)
	}
	vm := sim.New(img, sim.Options{})
	plan := partition.MustPartitionBound(g, 8)
	t.Run("Campaign", func(t *testing.T) {
		serial, err := measure.Campaign(plan, vm, envs, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := measure.Campaign(plan, vm, envs, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Error("measure.Campaign differs between Workers=1 and Workers=8")
		}
		s1, err := measure.ExhaustiveMax(vm, envs, 1)
		if err != nil {
			t.Fatal(err)
		}
		s8, err := measure.ExhaustiveMax(vm, envs, 8)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s8 {
			t.Errorf("ExhaustiveMax differs: %d (serial) vs %d (parallel)", s1, s8)
		}
	})

	// Stage: the full pipeline — WCET bound, per-unit maxima, verdicts.
	analyze := func(workers int) *core.Report {
		rep, err := core.AnalyzeGraph(file, fn, g, core.Options{
			Bound:      8,
			Exhaustive: true,
			Workers:    workers,
			TestGen:    wiperTestGenConfig(workers),
		})
		if err != nil {
			t.Fatal(err)
		}
		zeroDurations(rep.TestGen)
		return rep
	}
	t.Run("Analyze", func(t *testing.T) {
		serial := analyze(1)
		parallel := analyze(8)
		if serial.WCET != parallel.WCET {
			t.Errorf("WCET bound differs: %d vs %d", serial.WCET, parallel.WCET)
		}
		if serial.ExhaustiveWCET != parallel.ExhaustiveWCET {
			t.Errorf("exhaustive WCET differs: %d vs %d", serial.ExhaustiveWCET, parallel.ExhaustiveWCET)
		}
		if !reflect.DeepEqual(serial.TestGen, parallel.TestGen) {
			t.Error("test-generation reports differ")
		}
		if !reflect.DeepEqual(serial.Measurement.Times, parallel.Measurement.Times) {
			t.Error("per-unit maxima differ")
		}
		if !reflect.DeepEqual(serial.Critical, parallel.Critical) {
			t.Error("critical paths differ")
		}
	})
}

// TestSweepDeterministicAcrossWorkers pins the partitioning sweep: the
// Figure 2/3 series must not depend on the worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *SweepResult {
		res, err := Sweep(SweepConfig{Seed: 11, Branches: 80, Points: 120, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial.Points, parallel.Points) {
		t.Error("sweep series differs between Workers=1 and Workers=8")
	}
	if serial.Blocks != parallel.Blocks || serial.Branches != parallel.Branches {
		t.Error("sweep workload differs between runs")
	}
}
