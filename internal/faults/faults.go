// Package faults is the pipeline's deterministic fault-injection harness.
// Tests (and only tests) use it to make a stage fail, stall, or panic at a
// precisely chosen point, so every degradation path of the analysis can be
// exercised end to end.
//
// An Injector rides the context — faults.With attaches it, instrumented
// sites call faults.Fire(ctx, site, index) — so production code pays one
// nil check and no API surface. Sites key every call with a deterministic
// index (the target's position, the vector's position, the BFS step
// number), never an arrival counter: which call fires is therefore
// independent of goroutine scheduling and of the Workers knob, which is
// what lets the resilience tests demand byte-identical reports across
// worker counts even under injected faults.
//
// Instrumented sites:
//
//	"testgen.search"  — one GA search attempt; index = target position
//	"testgen.mc"      — one residue model-checker attempt; index = target position
//	"testgen.failover" — entry of an explicit-engine failover; index = target position
//	"mc.check"        — entry of a symbolic model-checker run; index 0
//	"mc.step"         — one symbolic BFS iteration; index = step number
//	"measure.campaign" — entry of a measurement campaign; index 0
//	"measure.run"     — one simulator replay attempt; index = vector position
//	"measure.exhaustive" — one exhaustive-sweep replay attempt; index = vector position
//	"partition.point" — one sweep sample; index = bound position
//
// Sites that sit inside a retry loop (the per-attempt ones above) are
// re-consulted on every attempt; rules with MaxFires model transient
// faults that the retry policy heals, rules without it model persistent
// ones that exhaust the attempt budget.
package faults

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"wcet/internal/fail"
)

// Mode is what an injected fault does at its site.
type Mode int

// Fault modes.
const (
	// Fail makes the site return an error.
	Fail Mode = iota
	// Panic makes the site panic (exercising worker panic isolation).
	Panic
	// Stall blocks the site for Delay or until the context is cancelled,
	// then returns the context error if cancelled (exercising deadlines).
	Stall
)

func (m Mode) String() string {
	switch m {
	case Fail:
		return "fail"
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Rule arms one injection: at Site, on the call with the given Index.
type Rule struct {
	// Site names the instrumented call site.
	Site string
	// Index selects the deterministic call index to fire on; -1 fires on
	// every call at the site.
	Index int
	// Mode selects the failure behaviour.
	Mode Mode
	// Err is the injected error for Fail (default: a generated one naming
	// site and index).
	Err error
	// Delay is the Stall duration (default 50ms).
	Delay time.Duration
	// Prob arms the rule probabilistically: when > 0, the rule fires only
	// when a hash of (Seed, Site, Index) falls below Prob. The decision is
	// a pure function of those values — deterministic across schedules and
	// worker counts. Index must be -1 to give every call its own draw.
	Prob float64
	// Seed drives the probabilistic draw.
	Seed int64
	// MaxFires, when > 0, bounds how many times the rule fires per
	// (site, index) pair — the transient-fault model: the first MaxFires
	// calls at a pair fail, later calls (the retry policy's subsequent
	// attempts) succeed. Counting per pair, never globally, keeps firing
	// independent of goroutine scheduling and worker count.
	MaxFires int
}

// PanicValue is the value injected panics carry, so tests can recognise
// their own explosions in recovered errors.
type PanicValue struct {
	Site  string
	Index int
}

func (p PanicValue) String() string {
	return fmt.Sprintf("injected panic at %s#%d", p.Site, p.Index)
}

// Injector holds armed rules and a log of fired injections.
type Injector struct {
	mu    sync.Mutex
	rules []Rule
	log   []string
	// fires counts firings per rule and (site, index) pair, for MaxFires.
	fires map[fireKey]int
}

type fireKey struct {
	rule  int
	site  string
	index int
}

// New builds an injector with the given rules armed.
func New(rules ...Rule) *Injector {
	return &Injector{rules: rules, fires: map[fireKey]int{}}
}

// Fired returns the sorted log of injections that fired, as
// "site#index:mode" strings. Sorting makes the log comparable across
// schedules even when several sites fire concurrently.
func (in *Injector) Fired() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := append([]string(nil), in.log...)
	sort.Strings(out)
	return out
}

// match finds the first armed rule covering (site, index), consuming one
// firing from rules bounded by MaxFires.
func (in *Injector) match(site string, index int) (Rule, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for ri, r := range in.rules {
		if r.Site != site {
			continue
		}
		covers := false
		if r.Prob > 0 {
			covers = draw(r.Seed, site, index) < r.Prob
		} else {
			covers = r.Index == -1 || r.Index == index
		}
		if !covers {
			continue
		}
		if r.MaxFires > 0 {
			k := fireKey{rule: ri, site: site, index: index}
			if in.fires[k] >= r.MaxFires {
				continue // transient fault already consumed at this pair
			}
			in.fires[k]++
		}
		return r, true
	}
	return Rule{}, false
}

func (in *Injector) record(site string, index int, mode Mode) {
	in.mu.Lock()
	in.log = append(in.log, fmt.Sprintf("%s#%d:%s", site, index, mode))
	in.mu.Unlock()
}

// draw maps (seed, site, index) to [0,1) with an FNV hash — a pure
// function, so probabilistic rules fire identically on every run and every
// worker count.
func draw(seed int64, site string, index int) float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(site))
	binary.LittleEndian.PutUint64(b[:], uint64(index))
	h.Write(b[:])
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}

type ctxKey struct{}

// With attaches an injector to the context. A nil injector detaches.
func With(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, ctxKey{}, in)
}

// From retrieves the context's injector, or nil.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// Fire checks for an armed fault at (site, index). Without an injector on
// the context it is a nil-check no-op. With a matching rule it fails,
// panics, or stalls per the rule's mode; the non-nil return value is the
// error the site must surface.
func Fire(ctx context.Context, site string, index int) error {
	in := From(ctx)
	if in == nil {
		return nil
	}
	r, ok := in.match(site, index)
	if !ok {
		return nil
	}
	in.record(site, index, r.Mode)
	switch r.Mode {
	case Panic:
		panic(PanicValue{Site: site, Index: index})
	case Stall:
		d := r.Delay
		if d == 0 {
			d = 50 * time.Millisecond
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	if r.Err != nil {
		return fresh(r.Err)
	}
	return fmt.Errorf("injected fault at %s#%d", site, index)
}

// fresh returns a new error value for one firing of a rule's error. Every
// holder of an injected error gets its own value, so nothing a site or
// its callers do to one firing's error can show up in another's: a
// *fail.Error is copied, any other error is wrapped, and both still match
// the rule's error under errors.Is.
func fresh(err error) error {
	if fe, ok := err.(*fail.Error); ok {
		c := *fe
		return &c
	}
	return &fired{err}
}

// fired is a firing of a rule's foreign error: it renders and unwraps to
// that error.
type fired struct{ err error }

func (f *fired) Error() string { return f.err.Error() }
func (f *fired) Unwrap() error { return f.err }
