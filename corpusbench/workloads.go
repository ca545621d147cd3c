package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wcet"
	"wcet/internal/gen"
	"wcet/internal/model"
)

// sample is one analysis: its wall and CPU seconds (AnalyzeCtx alone), its
// result, the source it analysed, and lane-specific layer readings.
type sample struct {
	wall, cpu float64
	memMB     float64   // peak resident memory during the analysis
	calib     []float64 // kernel timings just before the analysis
	rep       *wcet.Report
	err       error
	src       string
	extra     map[string]float64
}

// workload is one benchmark workload. The benchmark times setup as set-up
// (running it several times, keeping the state of the last run), then
// drives one lane per measured stream of analyses in a closed loop.
type workload interface {
	// setup prepares the workload and returns the analyses it ran, for
	// checking outside the timed region.
	setup() ([]sample, error)
	// lane starts an independent stream of analyses. The traced run keeps
	// traced and untraced analyses on separate lanes, so both see the same
	// sequence of programs.
	lane(name string) (lane, error)
	// oracleFor returns the checker for source text src.
	oracleFor(src string) (*Oracle, error)
	// finish runs the workload's end-of-run analyses, given the last
	// sample of the untraced lane.
	finish(last sample) []sample
}

// lane yields a workload's analyses one at a time; o, when non-nil, traces
// the analysis.
type lane interface {
	analyze(o *wcet.Observer) sample
	close()
}

// analyze runs one timed AnalyzeCtx call inside a benchmark span. It
// collects garbage first, so no analysis pays for its predecessor's, and
// then times the calibration kernel on the quiet process.
func analyze(src string, opt wcet.Options, o *wcet.Observer) sample {
	opt.Obs = o
	var rep *wcet.Report
	var err error
	runtime.GC()
	calib := calibrate()
	mw := watchMemory()
	sp := o.SpanV("bench", "analyze")
	wall, cpu := timed(func() { rep, err = wcet.AnalyzeCtx(context.Background(), src, opt) })
	sp.End()
	return sample{wall: wall, cpu: cpu, memMB: mw.peak(), calib: calib, rep: rep, err: err, src: src}
}

func canonical(rep *wcet.Report) []byte {
	var b bytes.Buffer
	if err := rep.WriteCanonical(&b); err != nil {
		return []byte("canonical export failed: " + err.Error())
	}
	return b.Bytes()
}

// ---------------------------------------------------------------------------
// Fixed programs: the wiper chart and generated control code.

// fixedProgram analyses one program over and over, unjournaled and
// uncached. seed draws the check-vector sample; gaSeed seeds the GA. The
// wiper's GA follows the run's seed; gen40 fixes it, so that every run
// analyses the same problem and its three analyses measure machine noise
// rather than GA luck.
type fixedProgram struct {
	fn      string
	source  func() string
	opt     wcet.Options
	warmups int
	vectors int
	seed    int64 // check-vector sample seed
	gaSeed  int64

	src    string
	oracle *Oracle
}

func newWiper(seed int64) *fixedProgram {
	return &fixedProgram{
		fn:      "wiper_control",
		source:  func() string { return model.Wiper().Emit("wiper_control") },
		opt:     wcet.Options{Bound: 8},
		warmups: 2,
		seed:    seed,
		gaSeed:  seed,
	}
}

func newGen(seed, progSeed int64, branches, vectors int) *fixedProgram {
	return &fixedProgram{
		fn:      "control_task",
		source:  func() string { return gen.Generate(gen.Config{Seed: progSeed, Branches: branches}).Source },
		opt:     wcet.Options{Bound: 8},
		vectors: vectors,
		seed:    seed,
		gaSeed:  1,
	}
}

func (w *fixedProgram) setup() ([]sample, error) {
	w.src = w.source()
	w.opt.FuncName = w.fn
	w.opt.TestGen.GA.Seed = w.gaSeed
	var err error
	if w.oracle, err = NewOracle(w.src, w.fn, w.vectors, 0, w.seed); err != nil {
		return nil, err
	}
	var out []sample
	for i := 0; i < w.warmups; i++ {
		out = append(out, analyze(w.src, w.opt, nil))
	}
	return out, nil
}

func (w *fixedProgram) lane(string) (lane, error) { return fixedLane{w}, nil }

func (w *fixedProgram) oracleFor(string) (*Oracle, error) { return w.oracle, nil }

func (w *fixedProgram) finish(sample) []sample { return nil }

type fixedLane struct{ w *fixedProgram }

func (l fixedLane) analyze(o *wcet.Observer) sample { return analyze(l.w.src, l.w.opt, o) }

func (fixedLane) close() {}

// ---------------------------------------------------------------------------
// The edit loop: incremental re-analysis of a cumulative sequence of
// one-constant edits against a verdict store.

// editLoop models the -watch use. Set-up analyses the base program cold
// into a fresh verdict store; every lane starts from a byte copy of that
// store and analyses the same seed-chosen sequence of cumulative edits,
// each with a freshly reset journal.
type editLoop struct {
	seed        int64
	progSeed    int64
	branches    int
	vectors     int // check vectors per edited program
	baseVectors int // check vectors per seed for the base program
	work        string

	base       string
	baseOracle *Oracle
	store      string
	opt        wcet.Options
	setups     int
}

const editFunc = "control_task"

func newEditLoop(seed, progSeed int64, branches, vectors, baseVectors int, work string) *editLoop {
	return &editLoop{seed: seed, progSeed: progSeed, branches: branches,
		vectors: vectors, baseVectors: baseVectors, work: work}
}

func (w *editLoop) setup() ([]sample, error) {
	w.base = gen.Generate(gen.Config{Seed: w.progSeed, Branches: w.branches}).Source
	w.opt = wcet.Options{FuncName: editFunc, Bound: 8}
	if len(editSites(w.base)) == 0 {
		return nil, fmt.Errorf("edit-loop: no editable constants in the program")
	}
	// The base program's oracle fixes bound_gap_pct, so it samples as many
	// vectors as gen40's, half of them from a fixed seed.
	var err error
	if w.baseOracle, err = NewOracle(w.base, editFunc, w.baseVectors, 0, w.seed); err != nil {
		return nil, err
	}
	if w.store != "" {
		if err := os.RemoveAll(w.store); err != nil {
			return nil, err
		}
	}
	w.setups++
	w.store = filepath.Join(w.work, fmt.Sprintf("seed-store-%d", w.setups))
	vc, err := wcet.OpenCache(w.store)
	if err != nil {
		return nil, err
	}
	opt := w.opt
	opt.Cache = vc
	return []sample{analyze(w.base, opt, nil)}, nil
}

func (w *editLoop) oracleFor(src string) (*Oracle, error) {
	if src == w.base {
		return w.baseOracle, nil
	}
	return NewOracle(src, editFunc, w.vectors, w.seed)
}

func (w *editLoop) lane(name string) (lane, error) {
	dir := filepath.Join(w.work, name)
	if err := copyTree(w.store, filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	return &editLane{w: w, dir: dir, src: w.base, rng: rand.New(rand.NewSource(w.seed))}, nil
}

// finish re-analyses the last edited source uncached and unjournaled; the
// benchmark's same-source check then compares it with the warm report.
func (w *editLoop) finish(last sample) []sample {
	return []sample{analyze(last.src, w.opt, nil)}
}

type editLane struct {
	w     *editLoop
	dir   string
	src   string
	rng   *rand.Rand
	edits int
	j     *wcet.Journal
	cache *wcet.Cache
	// cacheOpen is how long OpenCache took, in seconds.
	cacheOpen float64
}

func (l *editLane) analyze(o *wcet.Observer) sample {
	// Edits alternate between outputs and guards, so every run has the
	// same mix of cache-friendly and re-proving edits.
	l.src = applyEdit(l.src, l.edits%2 == 1, l.rng)
	l.edits++
	var err error
	jpath := filepath.Join(l.dir, "run.journal")
	if l.j == nil {
		sp := o.SpanV("bench", "journal.open")
		l.j, err = wcet.OpenJournal(jpath)
		sp.End()
	} else {
		sp := o.SpanV("bench", "journal.reset")
		err = l.j.Reset()
		sp.End()
	}
	if err == nil && l.cache == nil {
		sp := o.SpanV("bench", "cache.open")
		t0 := time.Now()
		l.cache, err = wcet.OpenCache(filepath.Join(l.dir, "store"))
		l.cacheOpen = time.Since(t0).Seconds()
		sp.End()
	}
	if err != nil {
		return sample{err: err, src: l.src}
	}
	appended := l.j.Appended()
	opt := l.w.opt
	opt.Journal, opt.Cache = l.j, l.cache
	s := analyze(l.src, opt, o)
	var size float64
	if fi, err := os.Stat(jpath); err == nil {
		size = float64(fi.Size())
	}
	s.extra = map[string]float64{
		"journal.appends": float64(l.j.Appended() - appended),
		"journal.bytes":   size,
		// The store is opened once per lane, as the -watch loop does.
		"vcache.open_s": l.cacheOpen,
	}
	if s.rep != nil {
		// Model-checker verdicts alone: every GA key misses after an edit,
		// so the store-wide counters mix two very different hit rates.
		var hits, misses float64
		for _, r := range s.rep.TestGen.Results {
			switch {
			case r.Cached:
				hits++
			case r.Verdict != wcet.FoundByHeuristic:
				misses++
			}
		}
		s.extra["vcache.mc_hits"], s.extra["vcache.mc_misses"] = hits, misses
	}
	return s
}

func (l *editLane) close() {
	if l.j != nil {
		l.j.Close()
	}
}

// An edit site is one integer constant: a comparison operand in an if
// condition (a guard) or the whole right-hand side of an assignment (an
// output).
var (
	guardLine = regexp.MustCompile(`^\s*(\} else )?if \(`)
	guardLit  = regexp.MustCompile(`(==|!=|<=|>=|<|>) (-?\d+)`)
	outLine   = regexp.MustCompile(`^\s*\w+ = (-?\d+);$`)
)

type site struct {
	line  int
	guard bool
	nth   int // literal index within the line (guards)
}

func editSites(src string) []site {
	var out []site
	for i, ln := range strings.Split(src, "\n") {
		switch {
		case guardLine.MatchString(ln):
			for k := range guardLit.FindAllStringSubmatchIndex(ln, -1) {
				out = append(out, site{line: i, guard: true, nth: k})
			}
		case outLine.MatchString(ln):
			out = append(out, site{line: i})
		}
	}
	return out
}

// applyEdit changes one seed-chosen constant of src, in a guard when guard
// is set (and the program has one), otherwise in an output assignment. New
// constants come from the ranges the generator itself draws from (guards
// 0..39, outputs 0..99), so every edited program is one the generator could
// have emitted.
func applyEdit(src string, guard bool, rng *rand.Rand) string {
	var guards, outs []site
	for _, s := range editSites(src) {
		if s.guard {
			guards = append(guards, s)
		} else {
			outs = append(outs, s)
		}
	}
	pool := outs
	if guard && len(guards) > 0 || len(outs) == 0 {
		pool = guards
	}
	s := pool[rng.Intn(len(pool))]
	lines := strings.Split(src, "\n")
	ln := lines[s.line]
	var loc []int
	if s.guard {
		loc = guardLit.FindAllStringSubmatchIndex(ln, -1)[s.nth][4:6]
		lines[s.line] = ln[:loc[0]] + strconv.Itoa(rng.Intn(40)) + ln[loc[1]:]
	} else {
		loc = outLine.FindStringSubmatchIndex(ln)[2:4]
		lines[s.line] = ln[:loc[0]] + strconv.Itoa(rng.Intn(100)) + ln[loc[1]:]
	}
	return strings.Join(lines, "\n")
}

// copyTree byte-copies a directory tree.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
