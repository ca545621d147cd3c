package main

import (
	"os"
	"path/filepath"
	"testing"

	"wcet"
)

// TestMain doubles as the CLI's re-exec entry points: coordinators under
// test spawn workers by re-execing this binary with -ledger-worker,
// remote-agent smoke tests start whole agent processes with -ledger-agent,
// and signal tests run the entire CLI as a child via WCET_CLI_MAIN=1. Each
// shim routes straight into run() before the test framework parses flags.
func TestMain(m *testing.M) {
	switch {
	case os.Getenv("WCET_CLI_MAIN") == "1":
		os.Exit(run(os.Args[1:]))
	case len(os.Args) >= 3 && (os.Args[1] == "-ledger-worker" || os.Args[1] == "-ledger-agent"):
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

const smokeSrc = `
/*@ input */ /*@ range 0 3 */ int a;
int r;
void f(void) {
    if (a > 1) { r = 1; } else { r = 2; }
}
`

func writeSmokeSrc(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "smoke.c")
	if err := os.WriteFile(p, []byte(smokeSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// runQuiet invokes the CLI in-process with stdout discarded, returning the
// exit code. Diagnostics still go to stderr where test output belongs.
func runQuiet(t *testing.T, args ...string) int {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	return run(args)
}

func TestUsageErrors(t *testing.T) {
	src := writeSmokeSrc(t)
	j := filepath.Join(t.TempDir(), "run.journal")
	cases := []struct {
		name string
		args []string
	}{
		{"no source file", nil},
		{"resume without journal", []string{"-resume", src}},
		{"distribute without journal", []string{"-distribute", "2", src}},
		{"distribute with watch", []string{"-distribute", "2", "-journal", j, "-watch", src}},
		{"distribute with cache", []string{"-distribute", "2", "-journal", j, "-cache", t.TempDir(), src}},
		{"watch with journal", []string{"-watch", "-journal", j, src}},
		{"agents without distribute", []string{"-agents", "127.0.0.1:1", src}},
		// The engine configuration is fixed and profiles live under -status.
		{"no-slice", []string{"-no-slice", src}},
		{"no-reorder", []string{"-no-reorder", src}},
		{"no-pool", []string{"-no-pool", src}},
		{"pprof", []string{"-pprof", "127.0.0.1:0", src}},
	}
	for _, c := range cases {
		if got := runQuiet(t, c.args...); got != exitUsage {
			t.Errorf("%s: exit %d, want %d", c.name, got, exitUsage)
		}
	}
}

func TestJournalRunThenResume(t *testing.T) {
	src := writeSmokeSrc(t)
	j := filepath.Join(t.TempDir(), "run.journal")
	if got := runQuiet(t, "-journal", j, src); got != exitOK {
		t.Fatalf("journaled run: exit %d, want %d", got, exitOK)
	}
	if got := runQuiet(t, "-journal", j, "-resume", src); got != exitResumed {
		t.Errorf("resumed run: exit %d, want %d", got, exitResumed)
	}
}

func TestTimeoutExitsDegraded(t *testing.T) {
	src := writeSmokeSrc(t)
	if got := runQuiet(t, "-timeout", "1ns", src); got != exitDegraded {
		t.Errorf("timed-out run: exit %d, want %d", got, exitDegraded)
	}
}

// TestDistributeSmoke drives the real multi-process path end to end: the
// coordinator spawns two worker processes (this test binary re-exec'd via
// the TestMain shim), and a second invocation with -resume replays the
// finished journal.
func TestDistributeSmoke(t *testing.T) {
	src := writeSmokeSrc(t)
	j := filepath.Join(t.TempDir(), "run.journal")
	if got := runQuiet(t, "-distribute", "2", "-journal", j, src); got != exitOK {
		t.Fatalf("distributed run: exit %d, want %d", got, exitOK)
	}
	if got := runQuiet(t, "-distribute", "2", "-journal", j, "-resume", src); got != exitResumed {
		t.Errorf("resumed distributed run: exit %d, want %d", got, exitResumed)
	}
}

// TestDistExitCodePrecedence pins the documented severity order:
// 5 (quarantined) over 3 (degraded) over 4 (resumed) over 0.
func TestDistExitCodePrecedence(t *testing.T) {
	exact := &wcet.Report{Soundness: wcet.BoundExact}
	degraded := &wcet.Report{Soundness: wcet.BoundDegradedSafe}
	cases := []struct {
		name    string
		res     *wcet.LedgerResult
		resumed bool
		want    int
	}{
		{"quarantine beats everything", &wcet.LedgerResult{Report: degraded, Quarantined: []string{"tg/x"}}, true, exitQuarantined},
		{"degraded beats resumed", &wcet.LedgerResult{Report: degraded}, true, exitDegraded},
		{"resumed beats ok", &wcet.LedgerResult{Report: exact}, true, exitResumed},
		{"clean exact run", &wcet.LedgerResult{Report: exact}, false, exitOK},
	}
	for _, c := range cases {
		if got := distExitCode(c.res, c.resumed); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
