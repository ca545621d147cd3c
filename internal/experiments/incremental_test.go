package experiments

// Incremental-analysis acceptance on the wiper case study: a warm-cache
// re-analysis must produce a report byte-identical (WriteCanonical) to a
// clean run's, at any worker count — the cache may only change how fast a
// verdict arrives, never what it says.

import (
	"bytes"
	"context"
	"testing"

	"wcet/internal/core"
	"wcet/internal/obs"
	"wcet/internal/vcache"
)

func runCached(t *testing.T, workers int, vc *vcache.Store) *core.Report {
	t.Helper()
	file, fn, g := wiperGraph(t)
	rep, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, core.Options{
		Bound:      8,
		Exhaustive: true,
		Workers:    workers,
		TestGen:    wiperTestGenConfig(workers),
		Cache:      vc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestWiperWarmCacheByteIdenticalAcrossWorkers(t *testing.T) {
	want := canonicalBytes(t, runCached(t, 1, nil))

	vc, err := vcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := runCached(t, 1, vc)
	if cold.CachedUnits != 0 {
		t.Fatalf("cold run against an empty store claims %d cached units", cold.CachedUnits)
	}
	if got := canonicalBytes(t, cold); !bytes.Equal(got, want) {
		t.Fatalf("cold cached run diverged from clean:\n--- clean\n%s\n--- cold\n%s", want, got)
	}
	if vc.Len() == 0 {
		t.Fatal("cold run stored nothing")
	}

	hits := -1
	for _, workers := range []int{1, 8} {
		warm := runCached(t, workers, vc)
		if warm.CachedUnits == 0 {
			t.Fatalf("workers=%d: warm run replayed nothing", workers)
		}
		if got := canonicalBytes(t, warm); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: warm report diverged from clean:\n--- clean\n%s\n--- warm\n%s",
				workers, want, got)
		}
		// Hit counts are deterministic given a fixed cache state, including
		// across worker counts.
		if hits >= 0 && warm.CachedUnits != hits {
			t.Fatalf("warm hit count depends on workers: %d vs %d", hits, warm.CachedUnits)
		}
		hits = warm.CachedUnits
	}
}

// TestWiperWarmCacheEmitsOneGACompletionPerTarget: every GA search emits
// exactly one unit.completed event on the bus, whether it was computed,
// skipped, replayed from a journal or served from the cache — so a warm
// run's /events stream counts its GA units like a cold run's.
func TestWiperWarmCacheEmitsOneGACompletionPerTarget(t *testing.T) {
	vc, err := vcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runCached(t, 2, vc)

	file, fn, g := wiperGraph(t)
	o := obs.New(obs.Config{})
	sub := o.Subscribe(1 << 14)
	defer sub.Close()
	warm, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, core.Options{
		Bound:      8,
		Exhaustive: true,
		Workers:    2,
		TestGen:    wiperTestGenConfig(2),
		Cache:      vc,
		Obs:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CachedUnits == 0 {
		t.Fatal("warm run replayed nothing")
	}
	completions := map[string]int{}
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		if ev.Kind == obs.EvUnitCompleted && ev.Stage == "ga" {
			completions[ev.Unit]++
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d events; the count below is incomplete", sub.Dropped())
	}
	for _, r := range warm.TestGen.Results {
		if n := completions["ga/"+r.Path.Key()]; n != 1 {
			t.Errorf("target %s: %d ga completion event(s), want 1", r.Path.Key(), n)
		}
	}
	if len(completions) != len(warm.TestGen.Results) {
		t.Errorf("%d GA units completed, want one per target (%d)", len(completions), len(warm.TestGen.Results))
	}
}
