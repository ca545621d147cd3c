package obs

import (
	"fmt"
	"sync"
	"time"
)

// EventKind names a structured bus event. Kinds are part of the wire
// surface (/events SSE frames, telemetry sidecars, flight-recorder dumps);
// add new kinds rather than repurposing existing ones.
type EventKind string

// Bus event kinds. Stage events bracket the pipeline stages; unit events
// follow one durable work unit (a ga/ GA search, a tg/ model-check query)
// through its lifecycle; worker events track the distributed
// coordinator's view of its fleet.
const (
	EvStageStart      EventKind = "stage.start"
	EvStageFinish     EventKind = "stage.finish"
	EvUnitLeased      EventKind = "unit.leased"
	EvUnitCompleted   EventKind = "unit.completed"
	EvUnitRetried     EventKind = "unit.retried"
	EvUnitQuarantined EventKind = "unit.quarantined"
	EvVerdict         EventKind = "verdict"
	EvDegradation     EventKind = "degradation"
	EvWorkerSpawned   EventKind = "worker.spawned"
	EvWorkerExited    EventKind = "worker.exited"
	EvProgress        EventKind = "progress"
)

// BusEvent is one structured telemetry event. Every field is volatile by
// construction: events exist for live consumers (SSE subscribers, the
// flight recorder, the progress stream) and never feed a canonical export.
// Seq and WallMS are assigned at publish time.
type BusEvent struct {
	Seq    uint64    `json:"seq"`
	WallMS int64     `json:"wall_ms"`
	Kind   EventKind `json:"kind"`
	Stage  string    `json:"stage,omitempty"`
	Unit   string    `json:"unit,omitempty"`
	Worker string    `json:"worker,omitempty"`
	// Verdict carries the MC outcome on EvVerdict events.
	Verdict string `json:"verdict,omitempty"`
	// Detail is free-form human-readable context (the full text of
	// EvProgress lines, causes, durations).
	Detail string `json:"detail,omitempty"`
}

// Line renders the event as one human-readable flight-recorder line.
func (ev BusEvent) Line() string {
	s := fmt.Sprintf("+%d.%03ds #%d %s", ev.WallMS/1000, ev.WallMS%1000, ev.Seq, ev.Kind)
	if ev.Worker != "" {
		s += " worker=" + ev.Worker
	}
	if ev.Stage != "" {
		s += " stage=" + ev.Stage
	}
	if ev.Unit != "" {
		s += " unit=" + ev.Unit
	}
	if ev.Verdict != "" {
		s += " verdict=" + ev.Verdict
	}
	if ev.Detail != "" {
		s += " " + ev.Detail
	}
	return s
}

// Bus fans published events out to subscribers. Publishing never blocks:
// each subscriber owns a bounded drop-oldest ring, so a stalled consumer
// loses its oldest events (counted in the obs.events_dropped metric) while
// the analysis proceeds at full speed.
type Bus struct {
	mu    sync.Mutex
	seq   uint64
	stage string
	subs  []*Subscription
	// onDrop counts dropped events into the owning registry (volatile).
	onDrop func(n int64)
}

func newBus(onDrop func(n int64)) *Bus {
	return &Bus{onDrop: onDrop}
}

// publish stamps the event and delivers it to every subscriber. Never
// blocks; nil-safe so a nil bus (nil observer) publishes nowhere.
func (b *Bus) publish(ev *BusEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	if ev.Kind == EvStageStart {
		b.stage = ev.Stage
	}
	subs := b.subs
	b.mu.Unlock()
	for _, s := range subs {
		s.push(*ev)
	}
}

// Published returns the total number of events published so far.
func (b *Bus) Published() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Stage returns the most recent EvStageStart stage name ("" before the
// first stage) — the minimal live status when no journal is available.
func (b *Bus) Stage() string {
	if b == nil {
		return ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stage
}

func (b *Bus) subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{
		bus:    b,
		buf:    make([]BusEvent, buf),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	b.mu.Lock()
	subs := make([]*Subscription, 0, len(b.subs)+1)
	subs = append(subs, b.subs...)
	b.subs = append(subs, s)
	b.mu.Unlock()
	return s
}

func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	subs := make([]*Subscription, 0, len(b.subs))
	for _, x := range b.subs {
		if x != s {
			subs = append(subs, x)
		}
	}
	b.subs = subs
	b.mu.Unlock()
}

// Subscription is one consumer's bounded view of the bus. Obtain with
// Observer.Subscribe, drain with Next or TryNext, and Close when done.
type Subscription struct {
	bus *Bus

	mu      sync.Mutex
	buf     []BusEvent // ring storage
	start   int        // index of oldest buffered event
	n       int        // buffered count
	dropped uint64

	notify    chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// push appends the event, evicting the oldest if the ring is full.
func (s *Subscription) push(ev BusEvent) {
	s.mu.Lock()
	if s.n == len(s.buf) {
		s.start = (s.start + 1) % len(s.buf)
		s.n--
		s.dropped++
		if s.bus.onDrop != nil {
			s.bus.onDrop(1)
		}
	}
	s.buf[(s.start+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// TryNext pops the oldest buffered event without blocking.
func (s *Subscription) TryNext() (BusEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return BusEvent{}, false
	}
	ev := s.buf[s.start]
	s.start = (s.start + 1) % len(s.buf)
	s.n--
	return ev, true
}

// Next blocks until an event is available, the subscription is closed, or
// cancel is closed (pass a context's Done channel; nil never cancels).
func (s *Subscription) Next(cancel <-chan struct{}) (BusEvent, bool) {
	for {
		if ev, ok := s.TryNext(); ok {
			return ev, true
		}
		select {
		case <-s.done:
			// Drain events that raced with Close.
			if ev, ok := s.TryNext(); ok {
				return ev, true
			}
			return BusEvent{}, false
		case <-cancel:
			return BusEvent{}, false
		case <-s.notify:
		}
	}
}

// Dropped returns how many events this subscription has evicted unread.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from the bus and wakes blocked Next
// callers. Safe to call more than once.
func (s *Subscription) Close() {
	s.closeOnce.Do(func() {
		s.bus.unsubscribe(s)
		close(s.done)
	})
}

// Subscribe attaches a consumer with a ring of buf events (minimum 1).
// Returns nil on a nil observer — guard before calling Next in a loop.
func (o *Observer) Subscribe(buf int) *Subscription {
	if o == nil {
		return nil
	}
	return o.bus.subscribe(buf)
}

// Bus returns the observer's event bus (nil for a nil observer). Derived
// Worker/Named handles share one bus.
func (o *Observer) Bus() *Bus {
	if o == nil {
		return nil
	}
	return o.bus
}

// Emit publishes a structured event to the bus, records it in the flight
// recorder, and — for EvProgress events — renders it to the progress
// writer. Seq and WallMS are stamped here; Worker defaults to the
// observer's label (set by Named).
func (o *Observer) Emit(ev BusEvent) {
	if o == nil {
		return
	}
	if ev.Worker == "" {
		ev.Worker = o.label
	}
	ev.WallMS = time.Since(o.epoch).Milliseconds()
	o.bus.publish(&ev)
	o.flight.record(ev)
	if ev.Kind == EvProgress && o.progress != nil {
		prefix := ""
		if ev.Worker != "" {
			prefix = "[" + ev.Worker + "] "
		}
		progressMu.Lock()
		fmt.Fprintf(o.progress, "[%8.3fs] %s%s\n",
			float64(ev.WallMS)/1000, prefix, ev.Detail)
		progressMu.Unlock()
	}
}
