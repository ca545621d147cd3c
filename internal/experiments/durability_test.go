package experiments

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"wcet/internal/core"
	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/isa"
	"wcet/internal/journal"
	"wcet/internal/sim"
	"wcet/internal/testgen"
)

// Durability acceptance on the wiper case study: an analysis SIGKILLed at
// several distinct points — modelled in-process by cancelling the run after
// N durable journal appends, which leaves exactly the state a kill leaves —
// and resumed from its journal must converge to a report byte-identical to
// an uninterrupted run, at any worker count, and even while faults are
// being injected.

func canonicalBytes(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rep.WriteCanonical(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// runJournaled performs one analysis attempt against the journal at path.
// killAt > 0 cancels the run once that many records are durable; rules arm
// a fresh injector for the attempt.
func runJournaled(t *testing.T, workers int, path string, killAt int, rules ...faults.Rule) (*core.Report, error) {
	t.Helper()
	file, fn, g := wiperGraph(t)
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if killAt > 0 {
		j.SetAppendHook(func(_ string, total int) {
			if total >= killAt {
				cancel()
			}
		})
	}
	if len(rules) > 0 {
		ctx = faults.With(ctx, faults.New(rules...))
	}
	return core.AnalyzeGraphCtx(ctx, file, fn, g, core.Options{
		Bound:      8,
		Exhaustive: true,
		Workers:    workers,
		TestGen:    wiperTestGenConfig(workers),
		Journal:    j,
	})
}

func TestWiperKillResumeByteIdenticalReport(t *testing.T) {
	file, fn, g := wiperGraph(t)
	clean, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, core.Options{
		Bound: 8, Exhaustive: true, TestGen: wiperTestGenConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalBytes(t, clean)

	for _, workers := range []int{1, 8} {
		jpath := filepath.Join(t.TempDir(), "run.journal")
		// Three distinct interruption points, early to late in the run.
		for _, killAt := range []int{2, 7, 19} {
			_, err := runJournaled(t, workers, jpath, killAt)
			if err == nil {
				t.Fatalf("workers=%d killAt=%d: run finished before the kill point", workers, killAt)
			}
			if !errors.Is(err, fail.ErrCancelled) {
				t.Fatalf("workers=%d killAt=%d: got %v, want ErrCancelled", workers, killAt, err)
			}
		}
		rep, err := runJournaled(t, workers, jpath, 0)
		if err != nil {
			t.Fatalf("workers=%d: resumed run failed: %v", workers, err)
		}
		if rep.ResumedUnits == 0 {
			t.Errorf("workers=%d: final run replayed nothing after three kills", workers)
		}
		if got := canonicalBytes(t, rep); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: resumed report differs from clean run:\n--- clean\n%s\n--- resumed\n%s",
				workers, want, got)
		}
	}
}

// TestWiperKillResumeAcrossWorkerCounts resumes with a different worker
// count than the one the journal was written under — the fingerprint
// excludes Workers by design, so the journal must carry over.
func TestWiperKillResumeAcrossWorkerCounts(t *testing.T) {
	file, fn, g := wiperGraph(t)
	clean, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, core.Options{
		Bound: 8, Exhaustive: true, TestGen: wiperTestGenConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "run.journal")
	if _, err := runJournaled(t, 8, jpath, 11); !errors.Is(err, fail.ErrCancelled) {
		t.Fatalf("kill at 11 appends under workers=8: %v", err)
	}
	rep, err := runJournaled(t, 1, jpath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedUnits == 0 {
		t.Error("resume under a different worker count replayed nothing — fingerprint mismatch?")
	}
	if got, want := canonicalBytes(t, rep), canonicalBytes(t, clean); !bytes.Equal(got, want) {
		t.Errorf("cross-worker resume diverged:\n--- clean\n%s\n--- resumed\n%s", want, got)
	}
}

// TestWiperJournalOptionsMismatchRerunsClean: a journal written under a
// different configuration must be discarded on Bind — never silently
// replayed into an analysis it doesn't describe. The second run re-derives
// everything (ResumedUnits == 0) and matches its own clean reference.
func TestWiperJournalOptionsMismatchRerunsClean(t *testing.T) {
	file, fn, g := wiperGraph(t)
	jpath := filepath.Join(t.TempDir(), "run.journal")
	runWith := func(bound int64) *core.Report {
		j, err := journal.Open(jpath)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		rep, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, core.Options{
			Bound: bound, Exhaustive: true, TestGen: wiperTestGenConfig(1), Journal: j,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	runWith(8)
	second := runWith(6)
	if second.ResumedUnits != 0 {
		t.Errorf("journal written under Bound=8 replayed %d units into a Bound=6 run",
			second.ResumedUnits)
	}
	clean, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, core.Options{
		Bound: 6, Exhaustive: true, TestGen: wiperTestGenConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalBytes(t, second), canonicalBytes(t, clean); !bytes.Equal(got, want) {
		t.Errorf("re-run after fingerprint mismatch diverged:\n--- clean\n%s\n--- re-run\n%s", want, got)
	}
}

// TestWiperJournalHoldsOnlyGenerationUnits: only GA searches and
// model-checker verdicts are durable. A completed journaled -exhaustive
// run holds one "ga/" record per target and one "tg/" record per residue
// path, and nothing else — measurement and the exhaustive sweep are
// recomputed on resume, never journaled.
func TestWiperJournalHoldsOnlyGenerationUnits(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.journal")
	rep, err := runJournaled(t, 2, jpath, 0)
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range rep.TestGen.Results {
		want++ // its GA search
		if r.Verdict != testgen.FoundByHeuristic {
			want++ // its model-checker verdict
		}
	}
	for k := range records {
		if !strings.HasPrefix(k, "ga/") && !strings.HasPrefix(k, "tg/") {
			t.Errorf("journal holds non-generation record %q", k)
		}
	}
	if len(records) != want {
		t.Errorf("journal holds %d records, want %d (one per GA search and residue verdict)",
			len(records), want)
	}
}

// TestWiperJournalResumesAcrossCostModels: no journaled unit depends on
// the simulator, so the fingerprint leaves the cost model out. A journal
// written under one cycle model resumes under another, and the resumed
// report is byte-identical to a clean run under the new model.
func TestWiperJournalResumesAcrossCostModels(t *testing.T) {
	file, fn, g := wiperGraph(t)
	slow := isa.DefaultCosts()
	slow.BranchTaken += 2
	slow.Costs[isa.LD]++
	optsFor := func(costs *isa.CostModel, j *journal.Journal) core.Options {
		return core.Options{Bound: 8, Exhaustive: true, TestGen: wiperTestGenConfig(1),
			SimOptions: sim.Options{Costs: costs}, Journal: j}
	}
	clean, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, optsFor(slow, nil))
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "run.journal")
	for _, costs := range []*isa.CostModel{nil, slow} {
		j, err := journal.Open(jpath)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, optsFor(costs, j))
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		if costs == nil {
			continue
		}
		if rep.ResumedUnits == 0 {
			t.Error("journal written under the default cost model did not resume under another")
		}
		if got, want := canonicalBytes(t, rep), canonicalBytes(t, clean); !bytes.Equal(got, want) {
			t.Errorf("resumed report differs from a clean run under the same cost model:\n--- clean\n%s\n--- resumed\n%s",
				want, got)
		}
	}
}

// TestWiperKillResumeUnderInjectedFaults interleaves kills with injected
// faults: a transient search fault healed by retry and a persistent budget
// fault that degrades one residue path. The resumed report must equal a
// clean (uninterrupted) run under the same fault rules, byte for byte —
// attempt histories and degradation ledger included.
func TestWiperKillResumeUnderInjectedFaults(t *testing.T) {
	rules := func() []faults.Rule {
		return []faults.Rule{
			{Site: "testgen.search", Index: 1, MaxFires: 2,
				Err: fail.Infra("testgen", errors.New("injected transient search fault"))},
			{Site: "testgen.mc", Index: -1, Err: fail.Budget("mc", "injected node budget")},
		}
	}
	file, fn, g := wiperGraph(t)
	ctx := faults.With(context.Background(), faults.New(rules()...))
	clean, err := core.AnalyzeGraphCtx(ctx, file, fn, g, core.Options{
		Bound: 8, Exhaustive: true, TestGen: wiperTestGenConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Soundness != core.BoundDegradedSafe {
		t.Fatalf("soundness = %v, want safe-but-degraded (the budget fault must bite)", clean.Soundness)
	}
	want := canonicalBytes(t, clean)

	for _, workers := range []int{1, 8} {
		jpath := filepath.Join(t.TempDir(), "run.journal")
		for _, killAt := range []int{3, 9, 21} {
			// Fresh injector per life: re-executed units see the same fault
			// schedule the clean run saw.
			if _, err := runJournaled(t, workers, jpath, killAt, rules()...); !errors.Is(err, fail.ErrCancelled) {
				t.Fatalf("workers=%d killAt=%d: got %v, want ErrCancelled", workers, killAt, err)
			}
		}
		rep, err := runJournaled(t, workers, jpath, 0, rules()...)
		if err != nil {
			t.Fatalf("workers=%d: resumed faulted run failed: %v", workers, err)
		}
		if got := canonicalBytes(t, rep); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: faulted resume diverged:\n--- clean\n%s\n--- resumed\n%s", workers, want, got)
		}
	}
}
