// Package vcache is the persistent verdict cache behind incremental
// re-analysis: a content-addressed, on-disk store that memoizes the
// expensive per-path outcomes of the hybrid generator — model-checker
// verdicts with their deterministic statistics, attempts history and
// serialized cause, and GA search outcomes — across *runs*, so an edited
// program only re-proves the paths the edit can actually influence.
//
// # Keys
//
// Records are addressed by a 256-bit SHA-256 key built with NewKey: a
// versioned, length-disciplined fold of everything the cached outcome is a
// function of. For model-checker verdicts that is the *optimized, sliced*
// transition system (tsys.Model.WriteDigest) plus variable names and every
// deterministic model-checker option — the slice drops the parts of the
// program a path's trap cannot see, so an edit elsewhere leaves the key
// (and the cached verdict's validity) intact. The 64-bit FNV
// Model.Fingerprint is deliberately not used here: a persistent store
// shared across edits needs collision resistance, because a colliding key
// would silently replay a wrong verdict into a report.
//
// Degraded and Unknown verdicts are reusable exactly because the key
// digests the budgets (step, state and node caps, per-call timeout, retry
// policy) that produced them: a hit is by construction an
// outcome obtained under identical budgets, so "ran out of budget" is as
// deterministic — and as cacheable — as "infeasible".
//
// # Store layout and crash safety
//
// A store is a directory:
//
//	DIR/VERSION            the store format version marker
//	DIR/objects/ab/<hex>   one JSON record per key, sharded by prefix
//
// Writes go to a temporary file in the objects directory and are renamed
// into place, so a crash mid-write leaves at most an orphan temp file,
// never a torn record; a record that fails to decode is treated as absent
// and recomputed. Opening a store whose VERSION differs resets it — a
// cache is disposable by definition, and stale-format records must never
// be consulted.
//
// # Interaction with the run journal
//
// The journal (internal/journal) and the cache answer different questions:
// the journal makes *one run* durable under a single (program, options)
// fingerprint and is authoritative for it; the cache carries verdicts
// *across* program edits. Callers consult the journal first — a journaled
// unit replays from the journal and is copied into the cache — and fall
// back to the cache, journaling any cache hit so the run stays resumable.
//
// All methods are nil-receiver safe, mirroring the journal, so pipeline
// stages thread a possibly-absent cache without branching.
package vcache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Version is the store format version; a directory written by a different
// version is reset on Open.
const Version = "wcet-vcache-1\n"

// Key is a 256-bit content address.
type Key [sha256.Size]byte

// String renders the key in hex (the on-disk object name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher folds typed values into a Key. Every value is written with a
// fixed-width or length-prefixed encoding, so two different value
// sequences cannot collide by concatenation.
type Hasher struct {
	h   hash.Hash
	buf [8]byte
}

// NewKey starts a key digest under a version tag; bumping the tag retires
// every record keyed under the old one without touching the store.
func NewKey(version string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Str(version)
	return h
}

// Str folds a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(int64(len(s)))
	io.WriteString(h.h, s)
}

// Int folds a fixed-width integer.
func (h *Hasher) Int(v int64) {
	binary.LittleEndian.PutUint64(h.buf[:], uint64(v))
	h.h.Write(h.buf[:])
}

// Bool folds one byte.
func (h *Hasher) Bool(b bool) {
	if b {
		h.h.Write([]byte{1})
	} else {
		h.h.Write([]byte{0})
	}
}

// Float folds a float64 by its IEEE-754 bits.
func (h *Hasher) Float(v float64) { h.Int(int64(math.Float64bits(v))) }

// Writer exposes the underlying hash as an io.Writer, for streaming
// encoders such as tsys.Model.WriteDigest.
func (h *Hasher) Writer() io.Writer { return h.h }

// Sum finalises the key.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

// Counters is a snapshot of the store's traffic. Hits and Misses are
// deterministic given a fixed cache state (every lookup is keyed by pure
// program+options content); the byte counts follow the record sizes.
type Counters struct {
	Hits, Misses            int64
	BytesRead, BytesWritten int64
}

// Sub returns the delta c − prev, for exporting one run's traffic from a
// long-lived store.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Hits:         c.Hits - prev.Hits,
		Misses:       c.Misses - prev.Misses,
		BytesRead:    c.BytesRead - prev.BytesRead,
		BytesWritten: c.BytesWritten - prev.BytesWritten,
	}
}

// Store is one open verdict cache. The zero value and the nil pointer are
// inert: every method on a nil *Store is a no-op miss, so call sites
// thread a possibly-absent cache without branching.
type Store struct {
	dir string

	hits, misses            atomic.Int64
	bytesRead, bytesWritten atomic.Int64

	// mu serialises Put's check-then-write; concurrent readers need no
	// lock (records are immutable once renamed into place).
	mu sync.Mutex
}

// Open opens (or creates) the store rooted at dir. A version mismatch —
// the directory was written by an older format — resets the store to
// empty rather than consulting unreadable records.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vcache: %w", err)
	}
	vfile := filepath.Join(dir, "VERSION")
	if data, err := os.ReadFile(vfile); err == nil {
		if string(data) != Version {
			if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
				return nil, fmt.Errorf("vcache: resetting stale store: %w", err)
			}
			if err := os.WriteFile(vfile, []byte(Version), 0o644); err != nil {
				return nil, fmt.Errorf("vcache: %w", err)
			}
		}
	} else {
		if err := os.WriteFile(vfile, []byte(Version), 0o644); err != nil {
			return nil, fmt.Errorf("vcache: %w", err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("vcache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

func (s *Store) objectPath(k Key) string {
	name := k.String()
	return filepath.Join(s.dir, "objects", name[:2], name[2:])
}

// Get decodes the record stored under k into v, reporting whether a
// record existed and decoded cleanly. A missing or corrupted record is a
// miss — the unit is recomputed rather than trusted.
func (s *Store) Get(k Key, v any) bool {
	if s == nil {
		return false
	}
	data, err := os.ReadFile(s.objectPath(k))
	if err != nil || json.Unmarshal(data, v) != nil {
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	s.bytesRead.Add(int64(len(data)))
	return true
}

// Put stores v under k with a deterministic JSON encoding. Records are
// content-addressed, so the first write wins and re-putting a key is a
// no-op; the write itself is tmp+rename atomic, so a crash never leaves a
// torn record. A full disk is an infrastructure problem for the store's
// owner, reported but never fatal to the analysis.
func (s *Store) Put(k Key, v any) error {
	if s == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("vcache: encoding %s: %w", k, err)
	}
	path := s.objectPath(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("vcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("vcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("vcache: %w", err)
	}
	s.bytesWritten.Add(int64(len(data)))
	return nil
}

// Len walks the store and counts records (for tests and diagnostics).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Base(path)[0] != '.' {
			n++
		}
		return nil
	})
	return n
}

// Counters snapshots the store's traffic since Open.
func (s *Store) Counters() Counters {
	if s == nil {
		return Counters{}
	}
	return Counters{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// ---------------------------------------------------------------------------
// Context plumbing — the cache rides the analysis context exactly like the
// journal, the fault injector and the observer.

type ctxKey struct{}

// With attaches a store to the context; nil detaches.
func With(ctx context.Context, s *Store) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// From retrieves the context's store, or nil.
func From(ctx context.Context) *Store {
	s, _ := ctx.Value(ctxKey{}).(*Store)
	return s
}
