package chaos

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"wcet/internal/cc/ast"
	"wcet/internal/cc/parser"
	"wcet/internal/cc/sem"
	"wcet/internal/cfg"
	"wcet/internal/core"
	"wcet/internal/fail"
	"wcet/internal/faults"
	"wcet/internal/ga"
	"wcet/internal/model"
	"wcet/internal/testgen"
)

func wiper(t *testing.T) (*ast.File, *ast.FuncDecl, *cfg.Graph) {
	t.Helper()
	src := model.Wiper().Emit("wiper_control")
	file, err := parser.ParseFile("wiper.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sem.Check(file); err != nil {
		t.Fatal(err)
	}
	fn := file.Func("wiper_control")
	g, err := cfg.Build(fn)
	if err != nil {
		t.Fatal(err)
	}
	return file, fn, g
}

func wiperOptions(workers int) core.Options {
	return core.Options{
		Bound:      8,
		Exhaustive: true,
		Workers:    workers,
		TestGen: testgen.Config{
			GA:      ga.Config{Seed: 2005, Pop: 48, MaxGens: 80, Stagnation: 20},
			Workers: workers,
		},
	}
}

// TestSoakKillResumeConvergesByteIdentical is the core durability soak: the
// wiper analysis killed mid-flight several times (with torn tails between
// lives) converges to a report byte-identical to a clean run — at serial
// and parallel worker counts, and with the same bytes across worker counts.
func TestSoakKillResumeConvergesByteIdentical(t *testing.T) {
	file, fn, g := wiper(t)
	var refs [][]byte
	for _, workers := range []int{1, 8} {
		res, err := Soak(file, fn, g, wiperOptions(workers), Config{
			Seed:        41,
			Kills:       3,
			TornWrites:  5,
			JournalPath: filepath.Join(t.TempDir(), "run.journal"),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Identical {
			t.Errorf("workers=%d: resumed report differs from clean run:\n--- clean\n%s\n--- resumed\n%s",
				workers, res.Reference, res.Final)
		}
		if res.Kills == 0 {
			t.Errorf("workers=%d: campaign never killed a life (Lives=%d) — soak exercised nothing", workers, res.Lives)
		}
		if res.Kills > 0 && res.ResumedUnits == 0 {
			t.Errorf("workers=%d: killed %d times yet final life replayed nothing", workers, res.Kills)
		}
		refs = append(refs, res.Reference)
	}
	if !bytes.Equal(refs[0], refs[1]) {
		t.Errorf("clean canonical reports differ across worker counts:\n--- workers=1\n%s\n--- workers=8\n%s", refs[0], refs[1])
	}
}

// TestSoakUnderInjectedFaults layers the full fault menu over the kills:
// transient infrastructure failures healed by retry, a stall that
// completes, a persistent budget fault that degrades one path into the
// exhaustive fallback, and a one-shot panic that takes a whole life down.
// The converged report must still match the clean run under the same heal
// rules byte for byte.
func TestSoakUnderInjectedFaults(t *testing.T) {
	file, fn, g := wiper(t)
	heal := []faults.Rule{
		// Healed by the retry policy (MaxFires < default MaxAttempts).
		{Site: "testgen.search", Index: 1, MaxFires: 2,
			Err: fail.Infra("testgen", errors.New("injected transient search fault"))},
		{Site: "measure.run", Index: 0, MaxFires: 1,
			Err: fail.Infra("measure", errors.New("injected transient replay fault"))},
		// A stall that completes is invisible in the report.
		{Site: "measure.campaign", Index: 0, Mode: faults.Stall, Delay: time.Millisecond},
		// Persistent budget fault: never retried, degrades the path into the
		// ledger and the exhaustive fallback.
		{Site: "testgen.mc", Index: 3, Err: fail.Budget("mc", "injected node budget")},
	}
	crash := []faults.Rule{
		{Site: "testgen.search", Index: 2, Mode: faults.Panic},
	}
	for _, workers := range []int{1, 8} {
		res, err := Soak(file, fn, g, wiperOptions(workers), Config{
			Seed:        1907,
			Kills:       3,
			TornWrites:  4,
			Rules:       heal,
			Crash:       crash,
			JournalPath: filepath.Join(t.TempDir(), "run.journal"),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Identical {
			t.Errorf("workers=%d: faulted campaign diverged from clean run:\n--- clean\n%s\n--- resumed\n%s",
				workers, res.Reference, res.Final)
		}
		if res.Crashes == 0 {
			t.Errorf("workers=%d: the one-shot panic never crashed a life", workers)
		}
	}
}

// TestSoakRejectsBadConfig pins the harness input contract.
func TestSoakRejectsBadConfig(t *testing.T) {
	file, fn, g := wiper(t)
	if _, err := Soak(file, fn, g, wiperOptions(1), Config{}); err == nil {
		t.Error("missing JournalPath accepted")
	}
	if _, err := Soak(file, fn, g, wiperOptions(1), Config{
		JournalPath: filepath.Join(t.TempDir(), "j"),
		Crash:       []faults.Rule{{Site: "testgen.search", Index: -1, Mode: faults.Panic}},
	}); err == nil {
		t.Error("crash rule with wildcard index accepted")
	}
}
