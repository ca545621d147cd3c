package wcet

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"wcet/internal/ga"
	"wcet/internal/model"
	"wcet/internal/testgen"
)

// BenchmarkLiveTelemetry measures what the live-telemetry surface costs on
// the Section 4 wiper pipeline: an observed run with a bare observer
// versus one whose observer carries the full -status surface — a running
// HTTP server and one SSE subscriber that connects and then never reads a
// byte, the worst-case consumer (its ring overflows immediately and every
// publish pays the drop-oldest path). The two legs run interleaved (bare,
// live, bare, live, …) so machine drift cancels out of the ratio. The
// overhead-% metric — the live legs' wall time over the bare legs', minus
// one — must stay under 2%: events are one mutex acquisition and a ring
// write, never a blocking send. Each iteration asserts the two canonical
// reports are byte-identical — serving telemetry must not perturb the
// analysis.
func BenchmarkLiveTelemetry(b *testing.B) {
	src := model.Wiper().Emit("wiper_control")
	tg := testgen.Config{
		GA: ga.Config{Seed: 2005, Pop: 48, MaxGens: 80, Stagnation: 20},
	}
	run := func(ob *Observer) *Report {
		rep, err := Analyze(src, Options{
			FuncName:   "wiper_control",
			Bound:      8,
			Exhaustive: true,
			Obs:        ob,
			TestGen:    tg,
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	canonical := func(rep *Report) []byte {
		var buf bytes.Buffer
		if err := rep.WriteCanonical(&buf); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}

	bare := NewObserver(ObserverConfig{})
	live := NewObserver(ObserverConfig{})
	srv, err := ServeStatus("127.0.0.1:0", StatusConfig{Observer: live, EventBuffer: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close() // subscribed, never read: the stalled consumer

	run(nil) // warm-up: first run pays parser/GA cache misses
	var bareT, liveT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		repBare := run(bare)
		t1 := time.Now()
		repLive := run(live)
		liveT += time.Since(t1)
		bareT += t1.Sub(t0)
		if !bytes.Equal(canonical(repBare), canonical(repLive)) {
			b.Fatal("canonical report perturbed by the live telemetry surface")
		}
	}
	b.ReportMetric(float64(bareT.Nanoseconds())/float64(b.N), "bare-ns/op")
	b.ReportMetric(float64(liveT.Nanoseconds())/float64(b.N), "live-ns/op")
	b.ReportMetric((liveT.Seconds()/bareT.Seconds()-1)*100, "overhead-%")
}
