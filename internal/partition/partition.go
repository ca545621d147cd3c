// Package partition implements the paper's CFG partitioning algorithm
// (Section 2): the control flow graph is decomposed into program segments
// (PS) following the abstract syntax tree, top-down. A PS whose internal
// path count does not exceed the path bound b is measured as a whole — two
// instrumentation points and one measurement per path. Larger segments are
// decomposed into their nested segments plus residual basic blocks.
//
// On the paper's Figure 1 program the accounting reproduces Table 1 exactly:
//
//	b=1  → ip=22, m=11
//	b=2…5 → ip=16, m=9
//	b=6,7 → ip=2,  m=6
package partition

import (
	"context"
	"fmt"
	"strings"

	"wcet/internal/cfg"
	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/obs"
	"wcet/internal/par"
)

// PS is a program segment: a single-entry subgraph of the CFG, arranged in
// the hierarchy induced by the abstract syntax tree.
type PS struct {
	// Kind mirrors the structural origin: "function", "then", "else",
	// "case", "default", "loop-body".
	Kind string
	// Region is the segment's block set with its entry.
	Region cfg.Region
	// Paths is the number of entry→exit paths inside the segment.
	Paths cfg.Count
	// Children are the nested segments, in source order.
	Children []*PS
}

// BuildTree derives the PS tree of a graph from its structural arms,
// keeping only arms that are valid program segments (entered via a single
// control edge). Invalid arms — e.g. switch clauses that are fallen into —
// are dissolved: their nested segments are lifted to the parent.
//
// A graph without an arm tree (hand-assembled instead of produced by
// cfg.Build) is an input defect reported as fail.ErrInfrastructure — a
// long-running analysis service must reject such a graph, not crash on it.
func BuildTree(g *cfg.Graph) (*PS, error) {
	if g.Arms == nil {
		return nil, fail.Infra("partition", fmt.Errorf("graph has no arm tree (built without cfg.Build?)"))
	}
	root := buildPS(g, g.Arms)
	if root == nil {
		// The function arm is always single-entry; reaching this means the
		// arm tree is inconsistent with the graph.
		return nil, fail.Infra("partition", fmt.Errorf("function arm rejected (inconsistent arm tree)"))
	}
	return root, nil
}

func buildPS(g *cfg.Graph, a *cfg.Arm) *PS {
	var kids []*PS
	for _, c := range a.Children {
		kids = append(kids, liftValid(g, c)...)
	}
	if a.Kind != "function" && !a.SingleEntry(g) {
		return nil
	}
	ps := &PS{
		Kind:     a.Kind,
		Region:   a.Region(g),
		Paths:    a.Region(g).PathCount(),
		Children: kids,
	}
	return ps
}

func liftValid(g *cfg.Graph, a *cfg.Arm) []*PS {
	if ps := buildPS(g, a); ps != nil {
		return []*PS{ps}
	}
	var out []*PS
	for _, c := range a.Children {
		out = append(out, liftValid(g, c)...)
	}
	return out
}

// String renders the PS tree for diagnostics.
func (ps *PS) String() string {
	var b strings.Builder
	var rec func(*PS, int)
	rec = func(p *PS, depth int) {
		fmt.Fprintf(&b, "%s%s entry=B%d blocks=%d paths=%s\n",
			strings.Repeat("  ", depth), p.Kind, p.Region.Entry, p.Region.Size(), p.Paths)
		for _, c := range p.Children {
			rec(c, depth+1)
		}
	}
	rec(ps, 0)
	return b.String()
}

// UnitKind distinguishes the two measured unit shapes.
type UnitKind int

// Unit kinds.
const (
	// WholePS: the segment is measured end to end, once per internal path.
	WholePS UnitKind = iota
	// SingleBlock: a residual basic block measured on its own.
	SingleBlock
)

// Unit is one measured item of an instrumentation plan.
type Unit struct {
	Kind  UnitKind
	PS    *PS        // set for WholePS
	Block cfg.NodeID // set for SingleBlock
	// Paths is the number of measurements the unit requires.
	Paths cfg.Count
}

// Plan is the instrumentation and measurement plan for one path bound.
type Plan struct {
	G     *cfg.Graph
	Tree  *PS
	Bound cfg.Count
	Units []Unit
	// IP is the number of instrumentation points (two per unit).
	IP int
	// M is the total number of measurements (path-forcing runs).
	M cfg.Count
}

// IPFused is the instrumentation point count under the paper's footnote-1
// "intelligent instrumentation", which fuses the stop of one unit with the
// start of the next: ip/2 + 1.
func (p *Plan) IPFused() int { return p.IP/2 + 1 }

// Partition computes the plan for path bound b over a prebuilt PS tree.
func Partition(g *cfg.Graph, tree *PS, bound cfg.Count) *Plan {
	p := &Plan{G: g, Tree: tree, Bound: bound, M: cfg.NewCount(0)}
	p.visit(tree)
	return p
}

// PartitionBound is Partition with an integer bound, building the PS tree
// itself.
func PartitionBound(g *cfg.Graph, b int64) (*Plan, error) {
	tree, err := BuildTree(g)
	if err != nil {
		return nil, err
	}
	return Partition(g, tree, cfg.NewCount(b)), nil
}

// MustBuildTree is BuildTree for graphs known to come from cfg.Build
// (tests and examples); it panics on the input defect BuildTree reports.
func MustBuildTree(g *cfg.Graph) *PS {
	tree, err := BuildTree(g)
	if err != nil {
		panic(err)
	}
	return tree
}

// MustPartitionBound is PartitionBound with the MustBuildTree contract.
func MustPartitionBound(g *cfg.Graph, b int64) *Plan {
	plan, err := PartitionBound(g, b)
	if err != nil {
		panic(err)
	}
	return plan
}

func (p *Plan) visit(ps *PS) {
	if !ps.Paths.IsInf() && ps.Paths.CmpCount(p.Bound) <= 0 {
		p.Units = append(p.Units, Unit{Kind: WholePS, PS: ps, Paths: ps.Paths})
		p.IP += 2
		p.M = p.M.Add(ps.Paths)
		return
	}
	covered := map[cfg.NodeID]bool{}
	for _, c := range ps.Children {
		p.visit(c)
		for id := range c.Region.Set {
			covered[id] = true
		}
	}
	for _, id := range ps.Region.Nodes() {
		if covered[id] {
			continue
		}
		p.Units = append(p.Units, Unit{Kind: SingleBlock, Block: id, Paths: cfg.NewCount(1)})
		p.IP += 2
		p.M = p.M.Add(cfg.NewCount(1))
	}
}

// Point is one sweep sample for the Figures 2 and 3 series.
type Point struct {
	Bound   cfg.Count
	IP      int
	IPFused int
	M       cfg.Count
}

// Sweep evaluates the plan across the given bounds. Each bound's partition
// pass is independent (the PS tree is built once and only read), so the
// optional workers argument fans the sweep out over a worker pool; results
// are collected indexed by bound position, making the series identical for
// every worker count. Omitted or 1 sweeps serially; 0 uses one worker per
// CPU.
func Sweep(g *cfg.Graph, bounds []cfg.Count, workers ...int) ([]Point, error) {
	w := 1
	if len(workers) > 0 {
		w = par.Workers(workers[0])
	}
	return SweepCtx(context.Background(), g, bounds, w)
}

// SweepCtx is Sweep under a context: cancellation stops the remaining
// bounds cooperatively, and a panicking per-bound pass is isolated into a
// deterministic fail.ErrWorkerPanic attributed to its bound instead of
// crashing the sweep.
func SweepCtx(ctx context.Context, g *cfg.Graph, bounds []cfg.Count, workers int) ([]Point, error) {
	w := par.Workers(workers)
	tree, err := BuildTree(g)
	if err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	out := make([]Point, len(bounds))
	err = par.ForEachCtx(ctx, len(bounds), w, func(ctx context.Context, i int) error {
		if ferr := faults.Fire(ctx, "partition.point", i); ferr != nil {
			return fail.Attribute(fail.From("partition", ferr), "partition", bounds[i].String())
		}
		plan := Partition(g, tree, bounds[i])
		out[i] = Point{Bound: bounds[i], IP: plan.IP, IPFused: plan.IPFused(), M: plan.M}
		// The point series is indexed by bound position, so the gauge's
		// logical index makes the last bound's ip win deterministically.
		o.Count("partition.sweep.points", 1)
		o.Set("partition.sweep.last_ip", int64(i), int64(plan.IP))
		return nil
	})
	if err != nil {
		return nil, fail.Attribute(err, "partition", "")
	}
	return out, nil
}

// DefaultBounds produces a log-spaced bound series 1, 2, 4, … that runs past
// the whole-function path count (so the last point is the end-to-end
// measurement with ip = 2), capped at maxPoints samples.
func DefaultBounds(g *cfg.Graph, maxPoints int) []cfg.Count {
	total := cfg.WholeFunction(g).PathCount()
	var out []cfg.Count
	b := cfg.NewCount(1)
	for i := 0; i < maxPoints; i++ {
		out = append(out, b)
		if !total.IsInf() && b.CmpCount(total) >= 0 {
			break
		}
		b = b.Mul(cfg.NewCount(2))
	}
	return out
}
