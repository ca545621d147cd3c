// Command corpusbench is the repository's end-to-end benchmark: it runs one
// workload of whole analyses through wcet.AnalyzeCtx in a closed loop (one
// analysis at a time, GOMAXPROCS = CPUs, default worker count), checks
// every report against facts computed without the analysis, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics of a traced
// pass — as one JSON object on the last line of standard output.
//
//	corpusbench --workload wiper|gen40|edit-loop --seed N --seconds S --trace 0|1
//
// The seed drives the GA seed and the check-vector sample (wiper, gen40)
// and the edit sequence (edit-loop); --program-seed picks another generated
// program for gen40 and edit-loop. It exits 1 when any analysis or check
// fails and 2 when the workload cannot be set up.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"wcet"
	"wcet/internal/cfg"
)

const (
	// Set-up runs at least minSetupReps times and then again until
	// setupSeconds have passed; setup_s is the median repetition's CPU
	// time. Set-up is mostly serial, so its wall time measured how often
	// the host scheduled the process: a busy process on the second CPU
	// made it 20-40% slower (two busy processes: 90%) while its CPU time
	// stayed within 5%.
	minSetupReps = 3
	setupSeconds = 4.0
	// setupGCPercent is the collector's target during set-up. Building the
	// check vectors makes about 670 MB of short-lived garbage over a live
	// heap of a few MB: at the default target that is some 250 collections
	// per repetition, whose CPU time varied by 10-25% between repetitions.
	setupGCPercent = 800
	// minSamples is the fewest analyses an untraced run makes, whatever
	// --seconds says (a traced run makes at least one traced/untraced
	// pair). Three keep gen40's medians off a single analysis.
	minSamples = 3
	// Check-vector sample sizes, per seed, for programs whose input space
	// is too large to enumerate.
	genVectors  = 16384
	editVectors = 4096
)

// endToEnd lists the untraced run's gated metrics in BENCHMARK.json order.
// analysis_s is printed but not gated: on a shared 2-CPU host, an analysis's
// wall time doubles whenever the host runs the process on one CPU, while
// its CPU time does not move.
var endToEnd = []struct{ name, unit string }{
	{"cpu_s", "s"},
	{"peak_mem_mb", "MB"},
	{"setup_s", "s"},
	{"bound_gap_pct", "%"},
	{"exact_frac", "ratio"},
}

type config struct {
	workload string
	seed     int64
	progSeed int64
	seconds  float64
	trace    bool
	work     string
}

func newWorkload(c config) (workload, error) {
	progSeed := func(def int64) int64 {
		if c.progSeed != 0 {
			return c.progSeed
		}
		return def
	}
	switch c.workload {
	case "wiper":
		return newWiper(c.seed), nil
	case "gen40":
		return newGen(c.seed, progSeed(1), 40, genVectors), nil
	case "edit-loop":
		return newEditLoop(c.seed, progSeed(1), 30, editVectors, genVectors, c.work), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want wiper, gen40 or edit-loop)", c.workload)
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "wiper", "workload: wiper, gen40 or edit-loop")
	flag.Int64Var(&c.seed, "seed", 1, "seed for the workload's inputs")
	flag.Int64Var(&c.progSeed, "program-seed", 0, "generated program seed for gen40 and edit-loop (0 = the workload's default, 1)")
	flag.Float64Var(&c.seconds, "seconds", 10, "how long the closed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 = traced pass reporting per-layer metrics")
	flag.Parse()
	c.trace = trace != 0

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(".bench_build", "corpusbench-")
	if err != nil {
		fatal(err)
	}
	c.work = work
	r, err := run(c)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	r.print(os.Stdout)
	if !r.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corpusbench:", err)
	os.Exit(2)
}

// runner accumulates one run's samples and check outcomes.
type runner struct {
	c   config
	w   workload
	out []metricLine

	attempted, failed int
	problems          []string
	canon             map[[32]byte][]byte // source digest -> canonical report
	gaps              []float64           // bound gaps of analyses of gapSrc
	gapSrc            string              // the first source checked: the base program
	size              string
	selfTested        bool
	samples           int
}

func run(c config) (*runner, error) {
	w, err := newWorkload(c)
	if err != nil {
		return nil, err
	}
	r := &runner{c: c, w: w, canon: map[[32]byte][]byte{}}

	var setupWalls, setupCPUs, cals []float64
	var setupSamples []sample
	gcPercent := debug.SetGCPercent(setupGCPercent)
	for t := time.Now(); len(setupCPUs) < minSetupReps || time.Since(t).Seconds() < setupSeconds; {
		var ss []sample
		wall, cpu := timed(func() { ss, err = w.setup() })
		if err != nil {
			return nil, err
		}
		setupWalls, setupCPUs = append(setupWalls, wall), append(setupCPUs, cpu)
		setupSamples = append(setupSamples, ss...)
		runtime.GC()
		cals = append(cals, calibrate()...)
	}
	debug.SetGCPercent(gcPercent)
	for _, s := range setupSamples {
		r.check(s)
		cals = append(cals, s.calib...)
	}

	plain, err := w.lane("plain")
	if err != nil {
		return nil, err
	}
	defer plain.close()
	var traced lane
	if c.trace {
		if traced, err = w.lane("traced"); err != nil {
			return nil, err
		}
		defer traced.close()
	}

	var walls, cpus, mems, tracedWalls []float64
	layers := map[string][]float64{}
	var last sample
	least := minSamples
	if c.trace {
		least = 1
	}
	start := time.Now()
	for n := 0; n < least || time.Since(start).Seconds() < c.seconds; n++ {
		var s, ts sample
		var o *wcet.Observer
		if c.trace {
			o = wcet.NewObserver(wcet.ObserverConfig{})
			// Alternate which side goes first, so drift hits both equally.
			if n%2 == 0 {
				s, ts = plain.analyze(nil), traced.analyze(o)
			} else {
				ts, s = traced.analyze(o), plain.analyze(nil)
			}
		} else {
			s = plain.analyze(nil)
		}
		walls, cpus, mems = append(walls, s.wall), append(cpus, s.cpu), append(mems, s.memMB)
		cals = append(cals, s.calib...)
		r.check(s)
		last = s
		if c.trace {
			tracedWalls = append(tracedWalls, ts.wall)
			if r.check(ts) {
				for k, v := range layerSample(o, ts) {
					layers[k] = append(layers[k], v)
				}
			}
		}
	}
	if last.rep != nil {
		for _, s := range w.finish(last) {
			r.check(s)
		}
	}

	if c.trace {
		vals := map[string]float64{}
		for k, v := range layers {
			vals[k] = median(v)
		}
		base := median(walls)
		vals["trace.overhead_pct"] = 100 * (median(tracedWalls) - base) / base
		for _, m := range layerMetrics {
			r.out = append(r.out, metricLine{m.name, vals[m.name], m.unit, "-> " + m.moves, true})
		}
	} else {
		// Times are scaled to the reference machine's speed (calib.go), so
		// that drift in the host's speed between runs does not read as a
		// change in the analyser; the raw figures follow ungated.
		kernel := runKernelSeconds(cals)
		speed := speedFactor(kernel)
		vals := map[string]float64{
			"analysis_s":    speed * median(walls),
			"cpu_s":         speed * median(cpus),
			"peak_mem_mb":   median(mems),
			"setup_s":       speed * median(setupCPUs),
			"bound_gap_pct": median(r.gaps),
			"exact_frac":    float64(r.attempted-r.failed) / float64(r.attempted),
		}
		for _, m := range endToEnd {
			r.out = append(r.out, metricLine{m.name, vals[m.name], m.unit, "", true})
		}
		r.out = append(r.out,
			metricLine{"analysis_s", vals["analysis_s"], "s", "printed, not gated", false},
			metricLine{"analysis_p90_s", speed * percentile(walls, 90), "s",
				fmt.Sprintf("nearest rank over %d samples; printed, not gated", len(walls)), false},
			metricLine{"wall_s", median(walls), "s", "analysis_s before speed scaling", false},
			metricLine{"wall_p90_s", percentile(walls, 90), "s", "analysis_p90_s before speed scaling", false},
			metricLine{"cpu_raw_s", median(cpus), "s", "cpu_s before speed scaling", false},
			metricLine{"setup_raw_s", median(setupCPUs), "s",
				fmt.Sprintf("setup_s before speed scaling; median of %d set-ups", len(setupCPUs)), false},
			metricLine{"setup_wall_s", median(setupWalls), "s", "set-up wall time, unscaled", false},
			metricLine{"kernel_ms", 1000 * kernel, "ms",
				fmt.Sprintf("calibration kernel, p10 of %d timings; speed factor %.4f", len(cals), speed), false},
			metricLine{"failed_frac", float64(r.failed) / float64(r.attempted), "ratio",
				fmt.Sprintf("%d of %d analyses", r.failed, r.attempted), false},
		)
	}
	r.samples = len(walls)
	return r, nil
}

// check verifies one analysis outside the timed region: it ran without
// error, passes the oracle's checks, and its canonical report equals that
// of every other analysis of the same source. It reports whether s passed.
func (r *runner) check(s sample) bool {
	r.attempted++
	var bad []string
	if s.err != nil {
		bad = append(bad, s.err.Error())
	} else if or, err := r.w.oracleFor(s.src); err != nil {
		bad = append(bad, "oracle: "+err.Error())
	} else {
		bad = or.Check(s.rep)
		if r.gapSrc == "" {
			r.gapSrc = s.src
		}
		if s.src == r.gapSrc && or.GapCycles > 0 {
			r.gaps = append(r.gaps, 100*float64(s.rep.WCET-or.GapCycles)/float64(or.GapCycles))
		}
		key := sha256.Sum256([]byte(s.src))
		c := canonical(s.rep)
		if ref, ok := r.canon[key]; !ok {
			r.canon[key] = c
		} else if !bytes.Equal(ref, c) {
			bad = append(bad, "canonical report differs from another analysis of the same source")
		}
		if !r.selfTested {
			r.selfTested = true
			if err := or.SelfTest(s.rep); err != nil {
				r.problems = append(r.problems, "checker self-test: "+err.Error())
			}
			r.size = fmt.Sprintf("%d blocks, %d targets, %d branches",
				s.rep.G.NumNodes(), len(s.rep.TestGen.Results), countBranches(s.rep.G))
		}
	}
	if len(bad) > 0 {
		r.failed++
		for _, b := range bad {
			r.problems = append(r.problems, fmt.Sprintf("analysis %d: %s", r.attempted, b))
		}
	}
	return len(bad) == 0
}

func (r *runner) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// metricLine is one line of the summary table; reported lines also go
// into the result object.
type metricLine struct {
	name     string
	value    float64
	unit     string
	note     string
	reported bool
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable summary and, last, the result object.
func (r *runner) print(f *os.File) {
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "FAIL", p)
	}
	mode := "untraced"
	if r.c.trace {
		mode = "traced"
	}
	fmt.Fprintf(f, "workload %s  seed %d  program %s\n", r.c.workload, r.c.seed, r.size)
	fmt.Fprintf(f, "%s closed loop: %d samples, GOMAXPROCS %d, %d CPUs, %s\n",
		mode, r.samples, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	out := map[string]metricJSON{}
	for _, m := range r.out {
		if m.reported {
			out[m.name] = metricJSON{m.value, m.unit}
		}
		fmt.Fprintf(f, "  %-24s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	fmt.Fprintln(f, string(line))
}

// countBranches counts the blocks with more than one successor.
func countBranches(g *cfg.Graph) int {
	n := 0
	for _, nd := range g.Nodes {
		if len(g.Succs(nd.ID)) > 1 {
			n++
		}
	}
	return n
}
