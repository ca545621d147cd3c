package journal

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReadFileConcurrentWithAppends is the live-status read-path
// guarantee: ReadFile snapshots taken while a writer is appending are
// always clean frame-aligned prefixes of the write sequence — every
// record that parses is complete and correctly keyed, the fingerprint is
// intact, and the record count only ever grows between snapshots. This is
// exactly what /status relies on when it polls a journal whose flock the
// run still holds.
func TestReadFileConcurrentWithAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j := openT(t, path)
	defer j.Close()
	if _, err := j.Bind("fp-live"); err != nil {
		t.Fatal(err)
	}

	const total = 400
	var written atomic.Int64
	done := make(chan error, 1)
	// The writer holds its second half back until the reader has taken a
	// snapshot, so at least one snapshot overlaps the writes however the
	// two goroutines are scheduled.
	snapped := make(chan struct{})
	var snapOnce sync.Once
	defer snapOnce.Do(func() { close(snapped) })
	go func() {
		for i := 0; i < total; i++ {
			if i == total/2 {
				<-snapped
			}
			if err := j.Put(fmt.Sprintf("tg/unit-%04d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
				done <- err
				return
			}
			written.Add(1)
		}
		done <- nil
	}()

	prev := 0
	snapshots := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// Final snapshot sees everything.
			recs, fp, err := ReadFile(path)
			if err != nil || fp != "fp-live" || len(recs) != total {
				t.Fatalf("final snapshot = (%d recs, %q, %v), want (%d, fp-live, nil)", len(recs), fp, err, total)
			}
			if snapshots == 0 {
				t.Fatal("no mid-write snapshots taken; raise total")
			}
			return
		default:
		}

		lo := int(written.Load()) // records durably attempted before this read
		recs, fp, err := ReadFile(path)
		if err != nil {
			t.Fatalf("mid-write ReadFile: %v", err)
		}
		snapshots++
		snapOnce.Do(func() { close(snapped) })
		if len(recs) > 0 && fp != "fp-live" {
			t.Fatalf("fingerprint = %q mid-write", fp)
		}
		// Prefix property: at least the writes that completed before the
		// read are visible, never more than have been started, and every
		// visible record is intact.
		if len(recs) < lo {
			t.Fatalf("snapshot lost records: %d visible < %d completed", len(recs), lo)
		}
		if len(recs) < prev {
			t.Fatalf("snapshot shrank: %d after %d", len(recs), prev)
		}
		prev = len(recs)
		for k, v := range recs {
			var i int
			if _, err := fmt.Sscanf(k, "tg/unit-%d", &i); err != nil {
				t.Fatalf("malformed key in snapshot: %q", k)
			}
			if want := fmt.Sprintf("value-%d", i); string(v) != want {
				t.Fatalf("torn record %q = %q, want %q", k, v, want)
			}
		}
	}
}

// TestMemoryJournalIsReadOnly: the Memory view used by the status
// computation replays records but refuses writes — a /status poller must
// never be able to mutate a run through its snapshot.
func TestMemoryJournalIsReadOnly(t *testing.T) {
	m := Memory(map[string][]byte{"tg/a": []byte("va")})
	if v, ok := m.Get("tg/a"); !ok || string(v) != "va" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if !m.Has("tg/a") || m.Has("tg/b") {
		t.Error("Has sees wrong records")
	}
	if err := m.Put("tg/b", []byte("vb")); err == nil {
		t.Error("Put on a Memory journal must fail")
	}
	if err := m.Reset(); err == nil {
		t.Error("Reset on a Memory journal must fail")
	}
	if m.Has("tg/b") {
		t.Error("failed Put still registered the record")
	}
	if err := m.Close(); err != nil {
		t.Errorf("Close on a Memory journal: %v", err)
	}
}
