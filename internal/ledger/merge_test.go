package ledger_test

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"wcet/internal/core"
	"wcet/internal/ga"
	"wcet/internal/journal"
	"wcet/internal/ledger"
	"wcet/internal/testgen"
)

// The step function from the core tests: three-way switch over an
// annotated input plus a data-dependent branch — small enough to analyse
// in milliseconds, rich enough to exercise every pipeline stage (GA,
// model checker, campaign, exhaustive sweep: 3·21 = 63 input vectors).
const stepSrc = `
/*@ input */ /*@ range 0 2 */ int sel;
/*@ input */ /*@ range 0 20 */ char x;
int r;
void step(void) {
    r = 0;
    switch (sel) {
    case 0:
        if (x > 10) { r = 1; } else { r = 2; }
        break;
    case 1:
        r = x * 2;
        r = r + 1;
        break;
    default:
        r = 9;
        break;
    }
}
`

func stepOptions() core.Options {
	return core.Options{
		FuncName:   "step",
		Bound:      8,
		Exhaustive: true,
		Workers:    1,
		TestGen: testgen.Config{
			GA: ga.Config{Seed: 5, Pop: 32, MaxGens: 40, Stagnation: 10},
		},
	}
}

func canonicalBytes(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rep.WriteCanonical(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// referenceRun performs the single-process journaled run every
// distributed test compares against, returning its canonical report bytes
// and the journal's record set.
func referenceRun(t *testing.T, dir string) ([]byte, map[string][]byte, string) {
	return referenceRunWith(t, dir, stepOptions())
}

// referenceRunWith is referenceRun under explicit options.
func referenceRunWith(t *testing.T, dir string, opt core.Options) ([]byte, map[string][]byte, string) {
	t.Helper()
	file, fn, g, err := core.Frontend(stepSrc, "step")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "reference.journal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = j
	rep, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	records, fp, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 || fp == "" {
		t.Fatalf("reference journal is empty (records=%d, fp=%q)", len(records), fp)
	}
	return canonicalBytes(t, rep), records, fp
}

// TestMergeShuffleDeterminism is the merge-determinism suite: the
// reference run's records are split across three worker journals with
// overlapping (duplicated) units, then merged into a fresh canonical
// journal under several merge orders. Every order must converge to the
// same record set, and replaying the merged journal must reproduce the
// reference report byte for byte — merging is idempotent and commutative
// because records are content-addressed and pure.
func TestMergeShuffleDeterminism(t *testing.T) {
	dir := t.TempDir()
	// Only generation units are journaled, and at bound 8 the step function
	// is one segment of four paths — four records. Bound 2 splits it into
	// eleven targets, enough for the overlapping three-way split.
	mergeOpt := stepOptions()
	mergeOpt.Bound = 2
	wantReport, records, fp := referenceRunWith(t, dir, mergeOpt)
	keys := make([]string, 0, len(records))
	for k := range records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := len(keys)
	if n < 6 {
		t.Fatalf("reference run journaled only %d units; the overlap split needs more", n)
	}

	// Three overlapping shards: every key is in at least one, several are
	// in two or three — the duplicated-completion case.
	shards := [][]string{
		keys[:2*n/3],
		keys[n/3:],
		append(append([]string{}, keys[:n/4]...), keys[n/2:]...),
	}
	workerPaths := make([]string, len(shards))
	for i, shard := range shards {
		p := filepath.Join(dir, "worker-"+string(rune('a'+i))+".journal")
		w, err := journal.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Bind(fp); err != nil {
			t.Fatal(err)
		}
		for _, k := range shard {
			if err := w.Put(k, records[k]); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		workerPaths[i] = p
	}

	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}
	for oi, order := range orders {
		mergedPath := filepath.Join(dir, "merged-"+string(rune('0'+oi))+".journal")
		dst, err := journal.Open(mergedPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Bind(fp); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, wi := range order {
			m, err := ledger.Merge(dst, workerPaths[wi], shards[wi])
			if err != nil {
				t.Fatal(err)
			}
			total += m
		}
		if total != n {
			t.Errorf("order %v: merged %d records, want exactly %d (duplicates must not double-merge)", order, total, n)
		}
		// A repeat merge of any worker must be a no-op.
		if m, err := ledger.Merge(dst, workerPaths[order[0]], shards[order[0]]); err != nil || m != 0 {
			t.Errorf("order %v: re-merge merged %d records (err %v), want 0", order, m, err)
		}
		dst.Close()

		got, gotFP, err := journal.ReadFile(mergedPath)
		if err != nil {
			t.Fatal(err)
		}
		if gotFP != fp {
			t.Errorf("order %v: merged journal fingerprint %q, want %q", order, gotFP, fp)
		}
		if !reflect.DeepEqual(got, records) {
			t.Errorf("order %v: merged record set differs from the reference run's", order)
		}

		// Replaying the merged journal must assemble the reference report.
		file, fn, g, err := core.Frontend(stepSrc, "step")
		if err != nil {
			t.Fatal(err)
		}
		j, err := journal.Open(mergedPath)
		if err != nil {
			t.Fatal(err)
		}
		opt := mergeOpt
		opt.Journal = j
		rep, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, opt)
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.ResumedUnits == 0 {
			t.Errorf("order %v: replay recomputed everything — fingerprint mismatch?", order)
		}
		if got := canonicalBytes(t, rep); !bytes.Equal(got, wantReport) {
			t.Errorf("order %v: replayed report differs from reference:\n--- reference\n%s\n--- merged\n%s",
				order, wantReport, got)
		}
	}
}

// TestMergeRejectsForeignFingerprint: a worker journal bound to a
// different analysis must never leak records into the canonical journal.
func TestMergeRejectsForeignFingerprint(t *testing.T) {
	dir := t.TempDir()
	foreign, err := journal.Open(filepath.Join(dir, "foreign.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.Bind("fp-alien"); err != nil {
		t.Fatal(err)
	}
	if err := foreign.Put("ga/k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	foreign.Close()

	dst, err := journal.Open(filepath.Join(dir, "canonical.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, err := dst.Bind("fp-real"); err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.Merge(dst, filepath.Join(dir, "foreign.journal"), []string{"ga/k"}); err == nil {
		t.Fatal("Merge accepted a worker journal with a foreign fingerprint")
	}
	if dst.Has("ga/k") {
		t.Error("foreign record leaked into the canonical journal")
	}
}
