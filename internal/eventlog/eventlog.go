// Package eventlog is avdb's lightweight observability substrate: a
// bounded in-memory ring of structured protocol events (updates, AV
// grants, 2PC phases, sync batches) that operators can snapshot, dump,
// or subscribe to live. Sites append to it when configured with one;
// the cost when unconfigured is a nil check.
package eventlog

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/wire"
)

// Event is one observed protocol action.
type Event struct {
	Time   time.Time
	Site   wire.SiteID // the site that recorded the event
	Type   string      // dotted class, e.g. "update.delay", "av.grant"
	Key    string      // product key, when applicable
	Detail string      // free-form specifics

	// LSN, when non-zero, orders this event in its site's storage
	// stream (the WAL LSN of the batch it describes). Feed logs driving
	// the read plane set it; plain observability events leave it zero.
	LSN uint64
	// Payload optionally carries structured data for programmatic
	// consumers (the read plane's applier receives the storage ops of
	// an applied batch here). It is not rendered by String.
	Payload any
}

// String renders the event for humans.
func (e Event) String() string {
	return fmt.Sprintf("%s site=%d %s key=%s %s",
		e.Time.Format("15:04:05.000"), e.Site, e.Type, e.Key, e.Detail)
}

// Log is a fixed-capacity ring of events with optional live
// subscribers. It is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	count   int
	subs    map[int]*Subscriber
	nextS   int
	total   uint64
	dropped uint64 // fan-out drops across all subscribers, ever
	now     func() time.Time
}

// New creates a log keeping the most recent capacity events
// (minimum 16).
func New(capacity int) *Log {
	if capacity < 16 {
		capacity = 16
	}
	return &Log{buf: make([]Event, capacity), subs: make(map[int]*Subscriber)}
}

// SetNow replaces the time source used to stamp events appended with a
// zero Time (default: time.Now). The deterministic simulator points it
// at a virtual clock so event timestamps are in simulated time. Call
// before the log is shared. Append reads the clock while holding the
// log's lock (stamps then agree with ring order), so now must not call
// back into the log.
func (l *Log) SetNow(now func() time.Time) {
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// Append records an event, evicting the oldest when full, and fans it
// out to subscribers (dropping for any subscriber whose buffer is full
// — observability must never block the data path).
func (l *Log) Append(e Event) {
	l.mu.Lock()
	if e.Time.IsZero() {
		if l.now != nil {
			e.Time = l.now()
		} else {
			e.Time = time.Now()
		}
	}
	if l.count < len(l.buf) {
		l.buf[(l.start+l.count)%len(l.buf)] = e
		l.count++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
	}
	l.total++
	for _, sub := range l.subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
			l.dropped++
		}
	}
	l.mu.Unlock()
}

// Appendf formats and records an event.
func (l *Log) Appendf(site wire.SiteID, typ, key, format string, args ...any) {
	l.Append(Event{Site: site, Type: typ, Key: key, Detail: fmt.Sprintf(format, args...)})
}

// Len returns how many events are currently retained.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Total returns how many events have ever been appended.
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot returns the retained events, oldest first.
func (l *Log) Snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.count)
	for i := 0; i < l.count; i++ {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out
}

// Subscriber is one live tail of the log. Fan-out to a subscriber
// whose buffer is full drops the event (observability and read models
// must never block the data path); every such drop is counted, so a
// consumer that must not miss events (the read plane's applier) can
// detect the gap and resynchronize from authoritative state.
type Subscriber struct {
	l       *Log
	id      int
	ch      chan Event
	dropped atomic.Uint64
}

// C returns the subscriber's event channel. It is closed by Cancel.
func (s *Subscriber) C() <-chan Event { return s.ch }

// Dropped returns how many events were dropped for this subscriber
// because its buffer was full.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// Cancel detaches the subscriber and closes its channel. Idempotent.
func (s *Subscriber) Cancel() {
	s.l.mu.Lock()
	if _, ok := s.l.subs[s.id]; ok {
		delete(s.l.subs, s.id)
		close(s.ch)
	}
	s.l.mu.Unlock()
}

// NewSubscriber registers a subscriber that receives every subsequent
// event, best effort: events are dropped (and counted) rather than
// blocking producers when its buffer is full.
func (l *Log) NewSubscriber(buffer int) *Subscriber {
	if buffer < 1 {
		buffer = 64
	}
	sub := &Subscriber{l: l, ch: make(chan Event, buffer)}
	l.mu.Lock()
	sub.id = l.nextS
	l.nextS++
	l.subs[sub.id] = sub
	l.mu.Unlock()
	return sub
}

// Subscribe returns a channel that receives every subsequent event
// (best effort: events are dropped rather than blocking producers when
// the buffer is full) and a cancel function that closes it. Callers
// that need overflow accounting use NewSubscriber directly.
func (l *Log) Subscribe(buffer int) (<-chan Event, func()) {
	sub := l.NewSubscriber(buffer)
	return sub.C(), sub.Cancel
}

// Stats is a point-in-time summary of the log's activity.
type Stats struct {
	Appended    uint64 // events ever appended
	Retained    int    // events currently in the ring
	Subscribers int    // live subscribers
	Dropped     uint64 // fan-out drops across all subscribers, ever
}

// Stats returns the log's counters. Dropped is cumulative and includes
// drops for subscribers that have since cancelled.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appended:    l.total,
		Retained:    l.count,
		Subscribers: len(l.subs),
		Dropped:     l.dropped,
	}
}

// Dump writes the retained events to w, oldest first.
func (l *Log) Dump(w io.Writer) error {
	for _, e := range l.Snapshot() {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
