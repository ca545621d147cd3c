package wcet

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wcet/internal/ga"
	"wcet/internal/model"
	"wcet/internal/testgen"
)

// TestMain is the worker re-exec shim for the process-launching benchmarks
// in this package: a coordinator (local ProcLauncher or a loopback remote
// agent) re-execs this test binary with -remote-bench-worker and the
// assignment path, and the shim routes into the ledger worker before the
// test framework parses flags.
func TestMain(m *testing.M) {
	if len(os.Args) >= 3 && os.Args[1] == "-remote-bench-worker" {
		if err := LedgerWorker(context.Background(), os.Args[len(os.Args)-1]); err != nil {
			fmt.Fprintln(os.Stderr, "remote bench worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// BenchmarkRemoteAgents measures what machine-spanning costs over the best
// case (loopback TCP, no faults): the Section 4 wiper pipeline distributed
// over 4 local worker processes versus the same 4 workers leased onto two
// loopback remote agents with their journals streamed back frame by frame.
// The two legs run interleaved (local, remote, local, remote, …) so
// machine drift cancels out of the ratio; every iteration asserts the two
// canonical reports are byte-identical. The overhead-% metric prices the
// remote streaming machinery itself — same worker processes, same shards,
// the only delta is the TCP hop and the journal/telemetry forwarding.
func BenchmarkRemoteAgents(b *testing.B) {
	src := model.Wiper().Emit("wiper_control")
	opt := Options{
		FuncName:   "wiper_control",
		Bound:      8,
		Exhaustive: true,
		TestGen: testgen.Config{
			GA: ga.Config{Seed: 2005, Pop: 48, MaxGens: 80, Stagnation: 20},
		},
	}
	spec, err := NewLedgerSpec(src, opt)
	if err != nil {
		b.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	canonical := func(rep *Report) []byte {
		var buf bytes.Buffer
		if err := rep.WriteCanonical(&buf); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}

	var agents []string
	for i := 0; i < 2; i++ {
		agent, err := StartRemoteAgent("127.0.0.1:0", RemoteAgentConfig{
			Exec: []string{self, "-remote-bench-worker"},
			Poll: 2 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer agent.Close()
		agents = append(agents, agent.Addr())
	}

	dir := b.TempDir()
	iter := 0
	distribute := func(kind string, launcher LedgerLauncher) *Report {
		res, err := Distribute(context.Background(), spec, LedgerConfig{
			JournalPath: filepath.Join(dir, fmt.Sprintf("%s-%d.journal", kind, iter)),
			Workers:     4,
			Launcher:    launcher,
			// The default 25ms lease poll is tuned for long multi-process
			// runs; at benchmark scale it would drown the streaming cost
			// in idle sleeps.
			PollInterval: 2 * time.Millisecond,
			LeaseTicks:   2500,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Quarantined) != 0 {
			b.Fatalf("healthy benchmark run quarantined %v", res.Quarantined)
		}
		return res.Report
	}
	local := func() *Report {
		return distribute("local", ProcessLauncher(self, "-remote-bench-worker"))
	}
	remote := func() *Report {
		return distribute("remote", &RemoteLauncher{Agents: agents})
	}

	local() // warm-up: first run pays parser/GA cache misses and process spawn
	var localT, remoteT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter++
		t0 := time.Now()
		repL := local()
		t1 := time.Now()
		repR := remote()
		remoteT += time.Since(t1)
		localT += t1.Sub(t0)
		if !bytes.Equal(canonical(repL), canonical(repR)) {
			b.Fatal("remote-agent report diverges from the local-process report")
		}
	}
	b.ReportMetric(float64(localT.Milliseconds())/float64(b.N), "local-ms/op")
	b.ReportMetric(float64(remoteT.Milliseconds())/float64(b.N), "remote-ms/op")
	b.ReportMetric((remoteT.Seconds()/localT.Seconds()-1)*100, "overhead-%")
}
