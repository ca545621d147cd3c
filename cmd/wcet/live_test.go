package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runCapture invokes the CLI in-process with stdout captured, returning
// the exit code and the report bytes — the byte-identity assertions
// compare these across flag combinations.
func runCapture(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	code := run(args)
	os.Stdout = old
	w.Close()
	<-done
	r.Close()
	return code, buf.Bytes()
}

// TestExportsWrittenOnEveryExitCode pins the export contract: -metrics
// and -trace files are written as valid JSON on success AND on every
// failure exit the observer lives to see — a degraded or crashed run is
// exactly when you want its telemetry.
func TestExportsWrittenOnEveryExitCode(t *testing.T) {
	src := writeSmokeSrc(t)
	brokenSrc := filepath.Join(t.TempDir(), "broken.c")
	if err := os.WriteFile(brokenSrc, []byte("int f(void) { return 1 + ; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	seeded := filepath.Join(jdir, "seed.journal")
	if got := runQuiet(t, "-journal", seeded, src); got != exitOK {
		t.Fatalf("seeding journal: exit %d", got)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"ok", []string{src}, exitOK},
		{"error (parse failure)", []string{brokenSrc}, exitError},
		{"degraded (timeout)", []string{"-timeout", "1ns", src}, exitDegraded},
		{"resumed", []string{"-journal", seeded, "-resume", src}, exitResumed},
	}
	for _, c := range cases {
		dir := t.TempDir()
		metrics := filepath.Join(dir, "m.json")
		trace := filepath.Join(dir, "t.json")
		args := append([]string{"-metrics", metrics, "-trace", trace}, c.args...)
		if got := runQuiet(t, args...); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
			continue
		}
		for _, p := range []string{metrics, trace} {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Errorf("%s: export %s not written: %v", c.name, filepath.Base(p), err)
				continue
			}
			if !json.Valid(data) {
				t.Errorf("%s: export %s is not valid JSON (%d bytes)", c.name, filepath.Base(p), len(data))
			}
		}
	}
}

// liveSrc is slow enough (three ranged inputs, a loop, exhaustive
// measurement) that the live endpoints can be scraped mid-run, and its
// infeasible inner branch leaves the model checker a residue, so a
// distributed run leases a second round after the GA round.
const liveSrc = `
/*@ input */ /*@ range 0 15 */ int a;
/*@ input */ /*@ range 0 15 */ int b;
/*@ input */ /*@ range 0 7 */ int c;
int r;
void f(void) {
    int i;
    r = 0;
    /*@ loopbound 8 */ for (i = 0; i < 8; i = i + 1) {
        if (a > i) { r = r + a; } else { r = r - 1; }
    }
    if (b > 3) { r = r + b; if (b < 2) { r = 0; } }
    if (c > 1) { r = r + c; } else { r = r - c; }
}
`

// TestLiveStatusDistributedRun is the acceptance drive for -status: a
// distributed run serves /status (JSON with the deterministic stage
// frontier), /metrics (Prometheus text) and /events (SSE unit lifecycle)
// while analysing, and its stdout report is byte-identical to the same
// run without -status.
func TestLiveStatusDistributedRun(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "live.c")
	if err := os.WriteFile(src, []byte(liveSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "addr.txt")
	j1 := filepath.Join(t.TempDir(), "run.journal")

	type result struct {
		code int
		out  []byte
	}
	resCh := make(chan result, 1)
	go func() {
		code, out := runCapture(t, "-distribute", "2", "-exhaustive",
			"-journal", j1, "-status", "127.0.0.1:0", "-status-addr-file", addrFile, src)
		resCh <- result{code, out}
	}()

	// The address file is written before the analysis starts.
	var addr string
	for i := 0; i < 200; i++ {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("status server never published its address")
	}

	// SSE: subscribe for the whole run and collect event kinds.
	kinds := make(chan map[string]int, 1)
	go func() {
		seen := map[string]int{}
		defer func() { kinds <- seen }()
		resp, err := http.Get("http://" + addr + "/events")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				seen[strings.TrimPrefix(line, "event: ")]++
			}
		}
	}()

	// Scrape /status and /metrics until each succeeds once (the run is
	// seconds long; a scrape takes milliseconds).
	var statusOK, metricsOK bool
	var lastStatus []byte
	for !(statusOK && metricsOK) {
		select {
		case res := <-resCh:
			t.Fatalf("run finished (exit %d) before live scrapes succeeded (status=%v metrics=%v)",
				res.code, statusOK, metricsOK)
		default:
		}
		if !statusOK {
			if resp, err := http.Get("http://" + addr + "/status"); err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var st struct {
					Deterministic struct {
						Fingerprint string `json:"fingerprint"`
					} `json:"deterministic"`
				}
				if json.Unmarshal(body, &st) == nil && st.Deterministic.Fingerprint != "" {
					statusOK, lastStatus = true, body
				}
			}
		}
		if !metricsOK {
			if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if strings.Contains(string(body), "# TYPE wcet_ledger_workers_spawned counter") {
					metricsOK = true
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !json.Valid(lastStatus) {
		t.Errorf("/status response is not JSON:\n%s", lastStatus)
	}

	res := <-resCh
	if res.code != exitOK {
		t.Fatalf("distributed -status run: exit %d, want %d", res.code, exitOK)
	}
	seen := <-kinds
	for _, want := range []string{"worker.spawned", "unit.leased", "worker.exited"} {
		if seen[want] == 0 {
			t.Errorf("SSE stream never carried %q (saw %v)", want, seen)
		}
	}

	// Byte-identity: the same distributed run without -status must print
	// the identical report.
	j2 := filepath.Join(t.TempDir(), "run.journal")
	code, plain := runCapture(t, "-distribute", "2", "-exhaustive", "-journal", j2, src)
	if code != exitOK {
		t.Fatalf("reference run: exit %d", code)
	}
	if !bytes.Equal(res.out, plain) {
		t.Errorf("report differs with -status attached:\n--- with status\n%s\n--- without\n%s", res.out, plain)
	}
}
