// Package journal is the durable run journal behind crash-safe analyses:
// an append-only, content-addressed record store that survives SIGKILL,
// torn writes and process crashes, so a resumed analysis can skip every
// unit of work a previous attempt already completed.
//
// # Format
//
// The on-disk file is a sequence of CRC-framed records:
//
//	frame   := length(uint32 LE) crc32(uint32 LE, IEEE over payload) payload
//	payload := keyLen(uvarint) key value
//
// Appends are atomic with respect to the in-process writer (a mutex) but
// the file itself makes no atomicity assumption: a crash can leave a torn
// final frame. Open tolerates that by scanning frames from the start and
// truncating the file at the first bad frame — short header, implausible
// length, or CRC mismatch — so a journal is always readable up to its last
// intact record and appendable from there.
//
// # Content addressing
//
// Records are keyed by logical unit identity ("ga/" or "tg/" plus a
// target path key), never by position: replays
// load records into a map and duplicate appends of a key are idempotent —
// the first intact record wins, which is safe because every journaled unit
// is a pure function of (program, options fingerprint, key). The
// fingerprint itself is a reserved record written by Bind: reopening a
// journal against a different program or configuration resets it to empty
// instead of silently reusing stale results.
//
// # Durability and multi-process safety
//
// Open takes an exclusive advisory lock (flock) on the journal file for the
// life of the handle, so two processes can never interleave frames into one
// file; a second Open of a locked path fails with ErrLocked. The lock is
// per open file description: a second Open in the same process conflicts
// too, which is deliberate — one journal file has exactly one writer.
// ReadFile is the lock-free complement for readers that can tolerate a
// snapshot (the distributed coordinator merging a dead worker's journal).
//
// By default appends reach the operating system (a write syscall) but are
// not fsynced: a record is durable against the process dying — SIGKILL,
// panic, torn final write — the moment Put returns, but an ill-timed power
// loss or kernel crash can still lose recently appended frames. Callers
// that need power-loss durability (the distributed ledger's merge of
// completion records) opt in with SetSync, which fsyncs after every append.
//
// All methods are nil-receiver safe, so pipeline stages journal
// unconditionally and an un-journaled run pays one nil check per site.
package journal

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// ErrLocked reports that the journal file is already open — by another
// process, or by another handle in this one. Matched with errors.Is.
var ErrLocked = errors.New("journal file locked by another process")

// fingerprintKey is the reserved key binding a journal to one (program,
// options) identity. It starts with a NUL so no stage key can collide.
const fingerprintKey = "\x00fingerprint"

// maxFrame bounds a frame payload; a length field beyond it marks a torn
// or corrupted frame rather than a huge record.
const maxFrame = 1 << 28

// Journal is one open run journal. The zero value and the nil pointer are
// inert: every method on a nil *Journal is a no-op, so call sites thread a
// possibly-absent journal without branching.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	records map[string][]byte
	// sync, when set, fsyncs after every append (see SetSync).
	sync bool
	// appended counts frames written by this process (not replayed ones);
	// hits counts Get calls that found a record — the resumed-unit count.
	appended int
	hits     int
	// appendHook, when set, observes every successful append with the key
	// just written and the running appended count. The chaos harness uses
	// it to kill a run after a chosen amount of progress; distributed
	// workers use it to detect when their assigned units have drained.
	// Called with the journal lock held: the hook must not call back into
	// the Journal.
	appendHook func(key string, total int)
}

// Open opens (or creates) the journal at path, takes an exclusive advisory
// lock on it (failing with ErrLocked if another handle holds it), replays
// every intact frame into memory, and truncates any torn tail so
// subsequent appends start at a clean frame boundary.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		if errors.Is(err, ErrLocked) {
			return nil, fmt.Errorf("journal: %s: %w", path, ErrLocked)
		}
		return nil, fmt.Errorf("journal: locking %s: %w", path, err)
	}
	j := &Journal{path: path, f: f, records: map[string][]byte{}}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replay scans frames from the start of the file, loading the first intact
// record for each key and truncating at the first bad frame.
func (j *Journal) replay() error {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	good := scanFrames(data, func(key string, val []byte) {
		if _, dup := j.records[key]; !dup {
			// First intact record wins: records are content-addressed, so a
			// duplicate append of the same key carries the same content.
			j.records[key] = val
		}
	})
	if good < len(data) {
		if err := j.f.Truncate(int64(good)); err != nil {
			return fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := j.f.Seek(int64(good), 0); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// scanFrames walks the framed records in data, calling visit for each
// intact one in file order, and returns the byte offset of the first bad
// frame (== len(data) for a clean file).
func scanFrames(data []byte, visit func(key string, val []byte)) (good int) {
	for good < len(data) {
		rest := data[good:]
		if len(rest) < 8 {
			break // torn header
		}
		length := binary.LittleEndian.Uint32(rest[:4])
		if length == 0 || length > maxFrame || int(length) > len(rest)-8 {
			break // implausible or torn length
		}
		payload := rest[8 : 8+int(length)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			break // corrupted payload
		}
		key, val, ok := splitPayload(payload)
		if !ok {
			break
		}
		visit(key, val)
		good += 8 + int(length)
	}
	return good
}

// ReadFile loads a snapshot of the journal file at path without locking or
// modifying it: every intact frame up to the first bad one, first write
// wins, with the fingerprint record split out. The distributed coordinator
// uses it to harvest records from a dead (or still-running) worker's
// journal — a torn tail simply ends the snapshot early.
func ReadFile(path string) (records map[string][]byte, fingerprint string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("journal: %w", err)
	}
	records = map[string][]byte{}
	scanFrames(data, func(key string, val []byte) {
		if _, dup := records[key]; !dup {
			records[key] = val
		}
	})
	if fp, ok := records[fingerprintKey]; ok {
		fingerprint = string(fp)
		delete(records, fingerprintKey)
	}
	return records, fingerprint, nil
}

// ReadFileFrom is ReadFile restricted to frames at or after byte offset:
// it loads the records whose frames start at offset (which must be 0 or a
// frame boundary — typically a previous call's end), first write wins
// within the scanned range, and returns the offset just past the last
// intact frame. A remote journal stream resumes from exactly this offset:
// the stale reader's records plus the tail from end reconstruct the full
// record set, however the stream was torn in between. The fingerprint
// record is excluded, like ReadFile's record map.
func ReadFileFrom(path string, offset int64) (records map[string][]byte, end int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	if offset < 0 || offset > int64(len(data)) {
		return nil, 0, fmt.Errorf("journal: offset %d outside file of %d bytes", offset, len(data))
	}
	records = map[string][]byte{}
	good := scanFrames(data[offset:], func(key string, val []byte) {
		if key == fingerprintKey {
			return
		}
		if _, dup := records[key]; !dup {
			records[key] = val
		}
	})
	return records, offset + int64(good), nil
}

// NextFrame decodes the first complete intact frame at the head of buf,
// returning its key, value and total encoded size (header included), so a
// streaming reader can consume buf[:n] verbatim and keep the rest. n == 0
// with a nil error means buf holds only a frame prefix — read more bytes.
// A non-nil error means the head cannot begin a valid frame (implausible
// length, CRC mismatch, malformed payload): the stream is corrupt and must
// be re-synced from a known frame boundary.
func NextFrame(buf []byte) (key string, val []byte, n int, err error) {
	if len(buf) < 8 {
		return "", nil, 0, nil
	}
	length := binary.LittleEndian.Uint32(buf[:4])
	if length == 0 || length > maxFrame {
		return "", nil, 0, errors.New("journal: implausible frame length")
	}
	if int(length) > len(buf)-8 {
		return "", nil, 0, nil
	}
	payload := buf[8 : 8+int(length)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		return "", nil, 0, errors.New("journal: frame CRC mismatch")
	}
	key, val, ok := splitPayload(payload)
	if !ok {
		return "", nil, 0, errors.New("journal: malformed frame payload")
	}
	return key, val, 8 + int(length), nil
}

// Memory wraps a record snapshot (typically from ReadFile) in a read-only
// in-memory Journal: reads work as usual, appends and resets fail with an
// error instead of touching any file. The live status poller uses it to
// run planning reads (frontier progress, missing-key scans) against a
// lock-free snapshot while another process owns the journal's flock.
func Memory(records map[string][]byte) *Journal {
	j := &Journal{records: make(map[string][]byte, len(records))}
	for k, v := range records {
		j.records[k] = v
	}
	return j
}

// errReadOnly reports a write on a Memory journal.
var errReadOnly = errors.New("journal: read-only in-memory snapshot")

func splitPayload(payload []byte) (key string, val []byte, ok bool) {
	klen, n := binary.Uvarint(payload)
	if n <= 0 || int(klen) > len(payload)-n {
		return "", nil, false
	}
	key = string(payload[n : n+int(klen)])
	return key, payload[n+int(klen):], true
}

// Close releases the underlying file (and with it the advisory lock).
// Records already appended stay on disk; the journal must not be used
// afterwards.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}

// Path returns the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Len reports the number of stage records available for resume (the
// fingerprint record is excluded).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.records)
	if _, ok := j.records[fingerprintKey]; ok {
		n--
	}
	return n
}

// Hits reports how many Get calls found a journaled record since Open —
// the number of work units this process resumed instead of recomputing.
func (j *Journal) Hits() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hits
}

// Appended reports how many frames this process has written since Open.
func (j *Journal) Appended() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Fingerprint returns the identity the journal is bound to, if Bind (here
// or in a previous run) has recorded one.
func (j *Journal) Fingerprint() (string, bool) {
	if j == nil {
		return "", false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	fp, ok := j.records[fingerprintKey]
	return string(fp), ok
}

// Bind ties the journal to one (program, options) fingerprint. A journal
// already bound to the same fingerprint keeps its records and returns how
// many are available for resume; a fingerprint mismatch — the journal was
// written by a different program or configuration — resets the journal to
// empty and starts a clean run, because replaying records that a different
// analysis produced would silently corrupt the report.
func (j *Journal) Bind(fingerprint string) (resumable int, err error) {
	if j == nil {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if prev, ok := j.records[fingerprintKey]; ok {
		if string(prev) == fingerprint {
			n := len(j.records) - 1
			return n, nil
		}
		if err := j.resetLocked(); err != nil {
			return 0, err
		}
	}
	if err := j.appendLocked(fingerprintKey, []byte(fingerprint)); err != nil {
		return 0, err
	}
	return 0, nil
}

// Reset drops every record and truncates the file to empty.
func (j *Journal) Reset() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resetLocked()
}

func (j *Journal) resetLocked() error {
	if j.f == nil {
		return errReadOnly
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.records = map[string][]byte{}
	return nil
}

// Get returns the journaled value for key, if any. A hit counts toward
// Hits — it means one unit of work will be replayed, not redone.
func (j *Journal) Get(key string) ([]byte, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.records[key]
	if ok {
		j.hits++
	}
	return v, ok
}

// Has reports whether key is journaled, without counting a resume hit.
// Planning reads (the distributed frontier, merge bookkeeping) use it so
// Report.ResumedUnits keeps meaning "units replayed instead of computed".
func (j *Journal) Has(key string) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.records[key]
	return ok
}

// Peek returns the journaled value for key without counting a resume hit.
func (j *Journal) Peek(key string) ([]byte, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.records[key]
	return v, ok
}

// PeekJSON decodes the journaled value for key into v without counting a
// resume hit; a record that fails to decode is treated as absent.
func (j *Journal) PeekJSON(key string, v any) bool {
	data, ok := j.Peek(key)
	if !ok {
		return false
	}
	return json.Unmarshal(data, v) == nil
}

// Put appends one record. Appending a key that is already journaled is a
// no-op (records are content-addressed; the first write wins), so resumed
// runs may re-put replayed units without growing the file.
func (j *Journal) Put(key string, val []byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.records[key]; dup {
		return nil
	}
	return j.appendLocked(key, val)
}

func (j *Journal) appendLocked(key string, val []byte) error {
	if j.f == nil {
		return errReadOnly
	}
	// One frame, one write: header and payload go down in a single syscall,
	// which halves the append cost and shrinks the torn-tail window to a
	// single partial write.
	frame := make([]byte, 8, 8+binary.MaxVarintLen64+len(key)+len(val))
	var kl [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(kl[:], uint64(len(key)))
	frame = append(frame, kl[:n]...)
	frame = append(frame, key...)
	frame = append(frame, val...)
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(frame)-8))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	j.records[key] = val
	j.appended++
	if j.appendHook != nil {
		j.appendHook(key, j.appended)
	}
	return nil
}

// PutJSON journals v under key using a deterministic JSON encoding
// (encoding/json sorts map keys).
func (j *Journal) PutJSON(key string, v any) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding %q: %w", key, err)
	}
	return j.Put(key, data)
}

// GetJSON decodes the journaled value for key into v, reporting whether a
// record existed and decoded cleanly. A record that fails to decode is
// treated as absent — the unit is recomputed rather than trusted.
func (j *Journal) GetJSON(key string, v any) bool {
	data, ok := j.Get(key)
	if !ok {
		return false
	}
	return json.Unmarshal(data, v) == nil
}

// SetSync toggles power-loss durability: when on, every append is followed
// by an fsync before Put returns. The default (off) is durable against the
// process dying but not against the machine dying — see the package
// comment. The distributed coordinator turns it on while merging worker
// completion records into the canonical journal.
func (j *Journal) SetSync(on bool) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.sync = on
	j.mu.Unlock()
}

// SetAppendHook installs a hook observing every append with the key just
// written and the running per-process append count. The chaos soak harness
// uses it to cancel a run after a chosen amount of durable progress;
// distributed workers use it to complete Scope units. The hook runs with
// the journal lock held and must not call back into the Journal.
func (j *Journal) SetAppendHook(hook func(key string, total int)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.appendHook = hook
	j.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Context plumbing — the journal rides the analysis context exactly like
// the fault injector and the observer, so stage signatures stay unchanged.

type ctxKey struct{}

// With attaches a journal to the context; nil detaches.
func With(ctx context.Context, j *Journal) context.Context {
	return context.WithValue(ctx, ctxKey{}, j)
}

// From retrieves the context's journal, or nil.
func From(ctx context.Context) *Journal {
	j, _ := ctx.Value(ctxKey{}).(*Journal)
	return j
}
