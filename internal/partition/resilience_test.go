package partition

import (
	"context"
	"errors"
	"testing"

	"wcet/internal/cfg"
	"wcet/internal/fail"
	"wcet/internal/faults"
)

// TestBuildTreeRejectsGraphWithoutArmTree is the regression for the old
// panic: a hand-assembled graph (no AST arm tree) must come back as a
// structured input error, never crash the process.
func TestBuildTreeRejectsGraphWithoutArmTree(t *testing.T) {
	g := &cfg.Graph{} // built by hand, not by cfg.Build — Arms is nil
	tree, err := BuildTree(g)
	if tree != nil || !errors.Is(err, fail.ErrInfrastructure) {
		t.Fatalf("BuildTree(no arms) = (%v, %v), want ErrInfrastructure", tree, err)
	}
	if plan, err := PartitionBound(g, 4); plan != nil || !errors.Is(err, fail.ErrInfrastructure) {
		t.Errorf("PartitionBound(no arms) = (%v, %v), want ErrInfrastructure", plan, err)
	}
	if pts, err := Sweep(g, DefaultBounds(g, 4)); pts != nil || !errors.Is(err, fail.ErrInfrastructure) {
		t.Errorf("Sweep(no arms) = (%v, %v), want ErrInfrastructure", pts, err)
	}
}

func TestSweepInjectedFaultAttributedToBound(t *testing.T) {
	g := buildGraph(t, figure1, "main")
	bounds := DefaultBounds(g, 8)
	ctx := faults.With(context.Background(),
		faults.New(faults.Rule{Site: "partition.point", Index: 2}))
	pts, err := SweepCtx(ctx, g, bounds, 4)
	if pts != nil || err == nil {
		t.Fatalf("injected fault not surfaced: (%v, %v)", pts, err)
	}
	var fe *fail.Error
	if !errors.As(err, &fe) || fe.Stage != "partition" || fe.Path != bounds[2].String() {
		t.Errorf("fault not attributed to its bound: %v", err)
	}
}

func TestSweepInjectedPanicDeterministicAcrossWorkers(t *testing.T) {
	g := buildGraph(t, figure1, "main")
	bounds := DefaultBounds(g, 8)
	run := func(workers int) string {
		ctx := faults.With(context.Background(),
			faults.New(faults.Rule{Site: "partition.point", Index: 1, Mode: faults.Panic}))
		_, err := SweepCtx(ctx, g, bounds, workers)
		if !errors.Is(err, fail.ErrWorkerPanic) {
			t.Fatalf("workers=%d: got %v, want ErrWorkerPanic", workers, err)
		}
		return err.Error()
	}
	if s, p := run(1), run(8); s != p {
		t.Errorf("panic error differs across workers:\n  1: %s\n  8: %s", s, p)
	}
}

func TestSweepCancelled(t *testing.T) {
	g := buildGraph(t, figure1, "main")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepCtx(ctx, g, DefaultBounds(g, 8), 4); !errors.Is(err, fail.ErrCancelled) {
		t.Errorf("cancelled sweep: got %v, want ErrCancelled", err)
	}
}
