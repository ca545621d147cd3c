// Package experiments regenerates every table and figure of the paper's
// evaluation. Each driver returns structured rows/series and can render
// them in the paper's layout; the root-level benchmarks and the example
// programs call these drivers.
//
//	Table1    — measurement effort over path bound b (Figure 1 program)
//	Figure2   — instrumentation points over path bound (synthetic app)
//	Figure3   — measurements vs instrumentation points (synthetic app)
//	Table2    — model-checking cost per state-space optimisation
//	CaseStudy — wiper-control WCET: exhaustive vs partition-based bound
package experiments

import (
	"fmt"
	"strings"

	"wcet/internal/cc/parser"
	"wcet/internal/cc/sem"
	"wcet/internal/cfg"
	"wcet/internal/core"
	"wcet/internal/ga"
	"wcet/internal/gen"
	"wcet/internal/model"
	"wcet/internal/partition"
	"wcet/internal/testgen"
)

// Figure1Source is the paper's Figure 1 example listing.
const Figure1Source = `
int main() {
    int i;
    printf1();
    printf2();
    if (i == 0)
    {
        printf3();
        if (i == 0) {
            printf4();
        } else {
            printf5();
        }
    }
    if (i == 0)
    {
        printf6();
        printf7();
    }
    printf8();
}
`

// BuildGraph parses, checks and builds the CFG of one function.
func BuildGraph(src, name string) (*cfg.Graph, error) {
	f, err := parser.ParseFile("exp.c", src)
	if err != nil {
		return nil, err
	}
	if _, err := sem.Check(f); err != nil {
		return nil, err
	}
	fn := f.Func(name)
	if fn == nil {
		return nil, fmt.Errorf("experiments: function %q not found", name)
	}
	return cfg.Build(fn)
}

// ---------------------------------------------------------------------------
// Table 1

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Bound int64
	IP    int
	M     int64
}

// Table1 computes measurement effort for path bounds 1..7 on the Figure 1
// program. Expected (and asserted in tests): (22,11), (16,9)×4, (2,6)×2.
func Table1() ([]Table1Row, error) {
	g, err := BuildGraph(Figure1Source, "main")
	if err != nil {
		return nil, err
	}
	tree, err := partition.BuildTree(g)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, 7)
	for b := int64(1); b <= 7; b++ {
		plan := partition.Partition(g, tree, cfg.NewCount(b))
		rows = append(rows, Table1Row{Bound: b, IP: plan.IP, M: plan.M.Int64()})
	}
	return rows, nil
}

// RenderTable1 prints the rows in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Bound b | Instr. Points ip | Measurements m\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d | %16d | %14d\n", r.Bound, r.IP, r.M)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 2 and 3

// SweepConfig sizes the synthetic industrial application.
type SweepConfig struct {
	Seed     int64
	Branches int // the paper's functions have ≈300
	Points   int // sweep samples (log-spaced bounds)
	// Workers parallelises the per-bound partition passes (0 = one per
	// CPU, 1 = serial); the series is identical for every value.
	Workers int
}

// SweepResult carries the series for both figures plus workload facts.
type SweepResult struct {
	Points    []partition.Point
	Blocks    int
	Branches  int
	Lines     int
	TotalPath cfg.Count
}

// Sweep generates the synthetic application and sweeps the path bound —
// Figure 2 is (Bound → IP), Figure 3 is (IP → M).
func Sweep(conf SweepConfig) (*SweepResult, error) {
	if conf.Branches == 0 {
		conf.Branches = 300
	}
	if conf.Points == 0 {
		conf.Points = 400
	}
	prog := gen.Generate(gen.Config{Seed: conf.Seed, Branches: conf.Branches})
	g, err := BuildGraph(prog.Source, prog.FuncName)
	if err != nil {
		return nil, err
	}
	bounds := partition.DefaultBounds(g, conf.Points)
	points, err := partition.Sweep(g, bounds, conf.Workers)
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Points:    points,
		Blocks:    g.NumNodes(),
		Branches:  g.CondBranches(),
		Lines:     prog.Lines,
		TotalPath: cfg.WholeFunction(g).PathCount(),
	}, nil
}

// RenderFigure2 prints the (bound, ip) series.
func RenderFigure2(res *SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# synthetic app: %d blocks, %d branches, %d lines, %s paths\n",
		res.Blocks, res.Branches, res.Lines, res.TotalPath)
	b.WriteString("# bound b -> instrumentation points ip (log-x in the paper)\n")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%-24s %d\n", p.Bound, p.IP)
	}
	return b.String()
}

// RenderFigure3 prints the (ip, m) series.
func RenderFigure3(res *SweepResult) string {
	var b strings.Builder
	b.WriteString("# instrumentation points ip -> measurements m\n")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%-8d %s\n", p.IP, p.M)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Case study (Section 4)

// CaseStudyResult reproduces the wiper-control numbers.
type CaseStudyResult struct {
	Report *core.Report
	// Source is the generated wiper_control C code.
	Source string
	// ExhaustiveWCET and Bound are the paper's 250 and 274 analogues.
	ExhaustiveWCET int64
	Bound          int64
	// Blocks/States document the model scale (≈70 / 9).
	Blocks, States int
	// HeuristicShare is the GA's share of the generated test data.
	HeuristicShare float64
	Infeasible     int
}

// Overestimate is the bound's relative overestimation.
func (c *CaseStudyResult) Overestimate() float64 {
	if c.ExhaustiveWCET <= 0 {
		return 0
	}
	return float64(c.Bound-c.ExhaustiveWCET) / float64(c.ExhaustiveWCET)
}

// CaseStudy runs the full pipeline on the wiper controller, partitioned so
// that each case block is one program segment (path bound 8: every case
// arm has at most 5 internal paths, the whole function far more). It uses
// one analysis worker per CPU; the result is worker-count independent.
func CaseStudy() (*CaseStudyResult, error) {
	return CaseStudyWorkers(0)
}

// CaseStudyWorkers is CaseStudy with an explicit analysis fan-out
// (0 = one worker per CPU, 1 = serial).
func CaseStudyWorkers(workers int) (*CaseStudyResult, error) {
	d := model.Wiper()
	src := d.Emit("wiper_control")
	rep, err := core.Analyze(src, core.Options{
		FuncName:   "wiper_control",
		Bound:      8,
		Exhaustive: true,
		Workers:    workers,
		TestGen: testgen.Config{
			GA: ga.Config{Seed: 2005, Pop: 48, MaxGens: 80, Stagnation: 20},
		},
	})
	if err != nil {
		return nil, err
	}
	return &CaseStudyResult{
		Report:         rep,
		Source:         src,
		ExhaustiveWCET: rep.ExhaustiveWCET,
		Bound:          rep.WCET,
		Blocks:         d.NumBlocks(),
		States:         len(d.Chart.States),
		HeuristicShare: rep.TestGen.HeuristicShare,
		Infeasible:     rep.InfeasiblePaths,
	}, nil
}

// RenderCaseStudy prints the Section 4 summary.
func RenderCaseStudy(c *CaseStudyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "wiper_control: %d-state chart, %d-block model\n", c.States, c.Blocks)
	fmt.Fprintf(&b, "exhaustive end-to-end WCET : %6d cycles (paper: 250)\n", c.ExhaustiveWCET)
	fmt.Fprintf(&b, "partition-based WCET bound : %6d cycles (paper: 274)\n", c.Bound)
	fmt.Fprintf(&b, "overestimation             : %6.1f%% (paper: 9.6%%)\n", c.Overestimate()*100)
	fmt.Fprintf(&b, "test data from heuristics  : %6.0f%%\n", c.HeuristicShare*100)
	fmt.Fprintf(&b, "infeasible paths proven    : %6d\n", c.Infeasible)
	return b.String()
}
