package ledger_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wcet/internal/core"
	"wcet/internal/ga"
	"wcet/internal/journal"
	"wcet/internal/ledger"
	"wcet/internal/model"
	"wcet/internal/testgen"
)

func distConfig(dir string) ledger.Config {
	return ledger.Config{
		JournalPath:  filepath.Join(dir, "run.journal"),
		Workers:      3,
		PollInterval: 2 * time.Millisecond,
		LeaseTicks:   200,
	}
}

// TestDistributedRunMatchesSingleProcess is the core determinism
// acceptance: a 3-worker distributed run must produce a report
// byte-identical to the single-process reference.
func TestDistributedRunMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	want, _, _ := referenceRun(t, dir)

	spec, err := ledger.SpecFor(stepSrc, stepOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ledger.Run(context.Background(), spec, distConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("healthy run quarantined %v", res.Quarantined)
	}
	if res.Rounds == 0 || res.Spawned == 0 {
		t.Errorf("distributed run did no distributed work (rounds=%d, spawned=%d)", res.Rounds, res.Spawned)
	}
	if got := canonicalBytes(t, res.Report); !bytes.Equal(got, want) {
		t.Errorf("distributed report differs from single-process reference:\n--- reference\n%s\n--- distributed\n%s", want, got)
	}
}

// TestDistributedRunSurvivesWorkerDeaths kills the first round's workers
// one durable append into their two-unit shards — a death mid-shard in
// every first-round worker. The run must reclaim the incomplete units,
// re-lease them solo, and still converge to the reference report with
// nothing quarantined (single deaths never reach the fatality threshold).
func TestDistributedRunSurvivesWorkerDeaths(t *testing.T) {
	dir := t.TempDir()
	want, _, _ := referenceRun(t, dir)

	var mu sync.Mutex
	killAfter := []int{1, 1} // appends before death, doled out to the first spawns
	launcher := &ledger.GoLauncher{
		Hook: func(_ string, kill func()) func(string, int) {
			mu.Lock()
			defer mu.Unlock()
			if len(killAfter) == 0 {
				return nil
			}
			n := killAfter[0]
			killAfter = killAfter[1:]
			return func(_ string, total int) {
				if total >= n {
					kill()
				}
			}
		},
	}

	spec, err := ledger.SpecFor(stepSrc, stepOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := distConfig(dir)
	cfg.Workers = 2 // four first-round units → two units per shard
	cfg.Launcher = launcher
	res, err := ledger.Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("single deaths must not quarantine, got %v", res.Quarantined)
	}
	if res.Reclaimed == 0 {
		t.Error("both first-round workers died mid-shard but nothing was reclaimed")
	}
	if got := canonicalBytes(t, res.Report); !bytes.Equal(got, want) {
		t.Errorf("report after worker deaths differs from reference:\n--- reference\n%s\n--- distributed\n%s", want, got)
	}
}

// TestDistributedCoordinatorRestartResumes models a coordinator crash:
// the first coordinator is cancelled mid-run (its workers are killed and
// harvested), a second coordinator reuses the same journal and work dir,
// and the final report still matches the reference — the canonical
// journal plus leftover worker journals carry all surviving progress.
func TestDistributedCoordinatorRestartResumes(t *testing.T) {
	dir := t.TempDir()
	want, _, _ := referenceRun(t, dir)
	spec, err := ledger.SpecFor(stepSrc, stepOptions())
	if err != nil {
		t.Fatal(err)
	}

	// First coordinator: cancel as soon as any worker journals a record.
	ctx, cancel := context.WithCancel(context.Background())
	cfg := distConfig(dir)
	cfg.Launcher = &ledger.GoLauncher{
		Hook: func(_ string, _ func()) func(string, int) {
			return func(_ string, _ int) { cancel() }
		},
	}
	if _, err := ledger.Run(ctx, spec, cfg); err == nil {
		t.Fatal("first coordinator finished despite cancellation")
	}

	// Second coordinator: fresh config, same journal path and work dir.
	res, err := ledger.Run(context.Background(), spec, distConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalBytes(t, res.Report); !bytes.Equal(got, want) {
		t.Errorf("restarted coordinator diverged from reference:\n--- reference\n%s\n--- restarted\n%s", want, got)
	}
	if res.Report.ResumedUnits == 0 {
		t.Error("restarted coordinator resumed nothing")
	}
	// The work dir must be clean: no worker journals or assignments left.
	for _, pat := range []string{"worker-*.journal", "worker-*.json"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pat)); len(m) != 0 {
			t.Errorf("leftover work files after a clean finish: %v", m)
		}
	}
}

// TestDistributedQuarantineAfterRepeatedDeaths: a unit whose model-checker
// call stalls forever kills its worker through lease expiry every time it
// is leased. After MaxFatalities deaths it must be quarantined — recorded
// as an unresolved (unavailable) unit in the degradation ledger — instead
// of hanging the run, and with an input space too large to enumerate the
// report's soundness is BoundUnavailable.
func TestDistributedQuarantineAfterRepeatedDeaths(t *testing.T) {
	dir := t.TempDir()
	opt := stepOptions()
	opt.Exhaustive = false
	opt.MaxExhaustive = 10 // 63 vectors > 10: no exhaustive fallback possible
	opt.TestGen.SkipGA = true

	spec, err := ledger.SpecFor(stepSrc, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = []ledger.FaultRule{
		{Site: "testgen.mc", Index: 0, Mode: "stall", Delay: 30 * time.Second},
	}
	cfg := distConfig(dir)
	cfg.Workers = 2
	cfg.LeaseTicks = 10 // expire stalled leases after ~20ms
	cfg.MaxFatalities = 2

	res, err := ledger.Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || !strings.HasPrefix(res.Quarantined[0], "tg/") {
		t.Fatalf("quarantined = %v, want exactly one tg/ unit", res.Quarantined)
	}
	if res.Reclaimed < 2 {
		t.Errorf("reclaimed = %d, want at least 2 (one per death of the poisoned unit)", res.Reclaimed)
	}
	if res.Report.Soundness != core.BoundUnavailable {
		t.Errorf("soundness = %v, want BoundUnavailable (quarantined unit, space not enumerable)", res.Report.Soundness)
	}
	found := false
	for _, d := range res.Report.Degradations {
		if strings.Contains(strings.ToLower(cause(d)), "quarantined") {
			found = true
			// The dead worker's flight recorder rides the quarantine record
			// into the degradation ledger: the post-mortem names the last
			// events the worker saw before its death.
			if len(d.Flight) == 0 {
				t.Errorf("quarantined degradation carries no flight dump: %+v", d)
			}
		}
	}
	if !found {
		t.Errorf("no degradation attributes the quarantine; ledger: %+v", res.Report.Degradations)
	}
	// The .crash file next to the canonical journal holds the same dump.
	crash, err := os.ReadFile(filepath.Join(dir, "run.journal.crash"))
	if err != nil {
		t.Fatalf("no crash file written on quarantine: %v", err)
	}
	if !strings.Contains(string(crash), "wcet crash report") ||
		!strings.Contains(string(crash), res.Quarantined[0]) {
		t.Errorf("crash file does not name the quarantined unit:\n%s", crash)
	}

	// The canonical journal carries the quarantine record: a plain
	// single-process resume over it must see the same degraded state and
	// not hang on the poisoned unit.
	file, fn, g, err := core.Frontend(stepSrc, "step")
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(filepath.Join(dir, "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	opt2 := opt
	opt2.Journal = j
	rep, err := core.AnalyzeGraphCtx(context.Background(), file, fn, g, opt2)
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalBytes(t, rep), canonicalBytes(t, res.Report); !bytes.Equal(got, want) {
		t.Errorf("single-process resume over the quarantined journal diverged:\n--- distributed\n%s\n--- resume\n%s", want, got)
	}
}

func cause(d core.Degradation) string {
	if d.Cause == nil {
		return ""
	}
	return d.Cause.Error()
}

// TestDistributedExhaustiveRunTakesTwoRounds: only generation units are
// leased, so a healthy distributed -exhaustive run of the wiper — whose GA
// leaves a model-checker residue — needs one GA round and one MC round;
// the campaign and the exhaustive sweep run in the final assembly.
func TestDistributedExhaustiveRunTakesTwoRounds(t *testing.T) {
	spec, err := ledger.SpecFor(model.Wiper().Emit("wiper_control"), core.Options{
		Bound:      8,
		Exhaustive: true,
		Workers:    1,
		TestGen: testgen.Config{
			GA: ga.Config{Seed: 2005, Pop: 48, MaxGens: 80, Stagnation: 20},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ledger.Run(context.Background(), spec, distConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ExhaustiveWCET < 0 {
		t.Fatal("the exhaustive sweep did not run")
	}
	if res.Report.InfeasiblePaths == 0 {
		t.Fatal("no model-checker residue: the run exercised only the GA round")
	}
	if res.Rounds > 2 {
		t.Errorf("distributed run took %d rounds, want at most 2 (GA, then model checking)", res.Rounds)
	}
}
