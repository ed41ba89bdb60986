// Package eventlog is avdb's lightweight observability substrate: a
// bounded in-memory ring of structured protocol events (updates, AV
// grants, 2PC phases, sync batches) that operators can snapshot or
// dump. Sites append to it when configured with one; the cost when
// unconfigured is a nil check.
package eventlog

import (
	"fmt"
	"io"
	"sync"
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
}

// String renders the event for humans.
func (e Event) String() string {
	return fmt.Sprintf("%s site=%d %s key=%s %s",
		e.Time.Format("15:04:05.000"), e.Site, e.Type, e.Key, e.Detail)
}

// Log is a fixed-capacity ring of events. It is safe for concurrent
// use.
type Log struct {
	mu    sync.Mutex
	buf   []Event
	start int // index of the oldest event
	count int
	total uint64
	now   func() time.Time
}

// New creates a log keeping the most recent capacity events
// (minimum 16).
func New(capacity int) *Log {
	if capacity < 16 {
		capacity = 16
	}
	return &Log{buf: make([]Event, capacity)}
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

// Append records an event, evicting the oldest when full.
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

// Stats is a point-in-time summary of the log's activity.
type Stats struct {
	Appended uint64 // events ever appended
	Retained int    // events currently in the ring
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Appended: l.total, Retained: l.count}
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
