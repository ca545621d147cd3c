package experiments

import (
	"bytes"
	"testing"

	"wcet/internal/core"
	"wcet/internal/mc"
)

// End-to-end pin for the symbolic-speed levers (per-trap slicing, dynamic
// variable reordering, manager pooling) on the wiper case study. The
// levers are always on; this test forces reordering to actually fire (the
// default trigger is sized for Table 2 workloads, not the wiper toys) and
// checks the determinism contract the levers must not break: canonical
// reports are byte-identical across worker counts and run over run. The
// mc differential suites compare each lever against the engine without
// it.

func TestLeversCanonicalReportDeterministicAcrossWorkers(t *testing.T) {
	// Lower the reorder trigger so sifting fires during the analysis; the
	// canonical report must still not depend on the worker count.
	old := mc.SetReorderMin(256)
	defer mc.SetReorderMin(old)
	file, fn, g := wiperGraph(t)
	run := func(workers int) []byte {
		rep, err := core.AnalyzeGraph(file, fn, g, core.Options{
			Bound: 8, Exhaustive: true, Workers: workers, TestGen: wiperTestGenConfig(workers),
		})
		if err != nil {
			t.Fatal(err)
		}
		return canonicalBytes(t, rep)
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("canonical report differs between Workers=1 and Workers=8 with all levers on:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	// And re-running the same configuration must reproduce it exactly.
	if again := run(8); !bytes.Equal(parallel, again) {
		t.Error("canonical report not reproducible run over run with all levers on")
	}
}
