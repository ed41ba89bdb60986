// Package epoch implements SCAR-style epoch-based commit: instead of
// every commit waiting out its own group-commit fsync, commits enqueue
// on the currently open, monotonically numbered epoch and are released
// together once the epoch's covering LSN — the maximum LSN any commit
// in the epoch wrote — is durable. One fsync is amortized across every
// commit the epoch collected, so the fsync rate is bounded by the epoch
// interval rather than the commit rate.
//
// An epoch opens lazily at the first commit after its predecessor
// closed and closes when either its interval elapses or it reaches
// MaxCommits (size-based early close). Closes of adjacent epochs may
// overlap: epoch N+1 accepts commits while epoch N's sync is still in
// flight, and the underlying WAL serializes the actual fsyncs. An idle
// manager arms no timer and issues no fsync.
//
// The manager changes nothing about *what* is logged or in what order
// — records are still appended under their writers' locks before the
// commit enqueues — only *when* the acknowledgement is released. The
// escrow discipline (a decrease is logged before what it justifies, a
// crash loses slack but never mints AV) therefore survives intact: an
// epoch crash window can only lose commits that were never
// acknowledged.
//
// Enqueue registers a commit on the open epoch and returns a Ticket
// without waiting (storage.ApplyAsync), so a Delay Update can append its
// AV spend and then commit its stock batch, whose one wait covers both.
// Commit is exactly Enqueue followed by Ticket.Wait.
package epoch

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"avdb/internal/clock"
	"avdb/internal/metrics"
)

// ErrClosed reports a commit against a manager that has shut down.
var ErrClosed = errors.New("epoch: manager closed")

// Defaults.
const (
	DefaultInterval   = 200 * time.Microsecond
	DefaultMaxCommits = 1024
)

// Stats counts epoch activity; atomically updated, shareable between
// managers.
type Stats struct {
	// Epochs counts closed epochs (each closed epoch issued exactly one
	// covering sync).
	Epochs atomic.Int64
	// Commits counts commits acknowledged through an epoch boundary.
	Commits atomic.Int64
	// EarlyCloses counts size-triggered closes (epoch hit MaxCommits
	// before its interval elapsed).
	EarlyCloses atomic.Int64
	// CommitsPerEpoch, when non-nil, observes each closed epoch's commit
	// count (unitless).
	CommitsPerEpoch *metrics.Histogram
	// CloseLatency, when non-nil, observes the wall time from an epoch's
	// first commit to its covering LSN being durable.
	CloseLatency *metrics.Histogram
	// AckWait, when non-nil, observes the per-commit wall time spent
	// waiting for the epoch boundary.
	AckWait *metrics.Histogram
}

// Options tune a Manager.
type Options struct {
	// Interval is how long an epoch stays open after its first commit
	// (default DefaultInterval).
	Interval time.Duration
	// MaxCommits closes an epoch early once it has collected this many
	// commits (default DefaultMaxCommits; negative disables the cap).
	MaxCommits int
	// Clock drives epoch deadlines (nil means the real clock; the
	// deterministic simulator passes a virtual clock).
	Clock clock.Clock
	// Sync makes every record up to the given LSN durable. Required;
	// normally a *wal.Log's SyncTo.
	Sync func(lsn uint64) error
	// Stats, when non-nil, receives the counters above.
	Stats *Stats
}

// state is one epoch's accumulation window.
type state struct {
	num    uint64
	maxLSN uint64
	count  int64
	opened time.Time // first commit's arrival, for CloseLatency
	timer  *clock.Timer
	cancel chan struct{} // closed when the timer watcher must stand down
	done   chan struct{} // closed once the epoch is durable (or failed)
	err    error
	// detached marks the epoch as claimed for closing (by the timer
	// watcher, a size-triggered committer, or Close). Guarded by the
	// manager's mu.
	detached bool
}

// Manager batches commit acknowledgements onto epoch boundaries.
type Manager struct {
	opts Options

	mu     sync.Mutex
	cur    *state // open epoch, nil when idle
	num    uint64 // number of the most recently opened epoch
	closed bool

	durable atomic.Uint64 // highest epoch number known fully durable
}

// New builds a Manager. Sync is required.
func New(opts Options) *Manager {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.MaxCommits == 0 {
		opts.MaxCommits = DefaultMaxCommits
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	return &Manager{opts: opts}
}

// Current returns the number of the epoch a commit enqueued now would
// join: the open epoch's, or the next to open when the manager is idle.
func (m *Manager) Current() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur != nil {
		return m.cur.num
	}
	return m.num + 1
}

// Durable returns the highest epoch number whose commits are all
// durable (0 before any epoch closed).
func (m *Manager) Durable() uint64 { return m.durable.Load() }

// Ticket is one commit's claim on an epoch boundary, handed out by
// Enqueue. The commit is acknowledged — its epoch's covering LSN is
// durable, or the covering sync failed — once Done is closed.
type Ticket struct {
	m     *Manager
	e     *state
	start time.Time // enqueue time, for AckWait (zero when unobserved)
}

// Wait blocks until the ticket's epoch is durable and returns the epoch
// number and the sync outcome, observing the caller's ack wait. On error
// the record may or may not have reached disk; callers treat the effect
// as lost slack, exactly as with a failed direct sync.
func (t Ticket) Wait() (uint64, error) {
	<-t.e.done
	if !t.start.IsZero() {
		t.m.opts.Stats.AckWait.Observe(t.m.opts.Clock.Now().Sub(t.start))
	}
	return t.e.num, t.e.err
}

// Enqueue registers a commit whose WAL record ends at lsn on the open
// epoch and returns immediately with a Ticket for the acknowledgement;
// Ticket.Wait collects the outcome.
func (m *Manager) Enqueue(lsn uint64) (Ticket, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Ticket{}, ErrClosed
	}
	e := m.cur
	if e == nil {
		e = m.openLocked()
	}
	if lsn > e.maxLSN {
		e.maxLSN = lsn
	}
	e.count++
	closeNow := m.opts.MaxCommits > 0 && e.count >= int64(m.opts.MaxCommits) && !e.detached
	if closeNow {
		e.detached = true
		m.cur = nil
	}
	m.mu.Unlock()

	t := Ticket{m: m, e: e}
	if m.opts.Stats != nil && m.opts.Stats.AckWait != nil {
		t.start = m.opts.Clock.Now()
	}
	if closeNow {
		// This enqueuer tipped the epoch over MaxCommits. It must not
		// block on the covering sync itself — the next enqueue may
		// already be filling epoch N+1 — so the close runs detached;
		// the WAL serializes the fsyncs of overlapping closes.
		if m.opts.Stats != nil {
			m.opts.Stats.EarlyCloses.Add(1)
		}
		e.timer.Stop()
		close(e.cancel)
		go m.close(e)
	}
	return t, nil
}

// Commit enqueues a commit whose WAL record ends at lsn on the open
// epoch and blocks until the epoch's covering LSN is durable. It
// returns the epoch the commit rode and the sync outcome: on error the
// record may or may not have reached disk — callers treat the effect
// as lost slack, exactly as with a failed direct sync. Commit is
// Enqueue followed by Ticket.Wait.
func (m *Manager) Commit(lsn uint64) (uint64, error) {
	t, err := m.Enqueue(lsn)
	if err != nil {
		return 0, err
	}
	return t.Wait()
}

// openLocked starts the next epoch and arms its close timer. Caller
// holds m.mu.
func (m *Manager) openLocked() *state {
	m.num++
	e := &state{
		num:    m.num,
		opened: m.opts.Clock.Now(),
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
	}
	e.timer = clock.NewTimer(m.opts.Clock, m.opts.Interval)
	m.cur = e
	go m.watch(e)
	return e
}

// watch closes e when its interval elapses, unless a size-triggered
// committer or Close claimed it first.
func (m *Manager) watch(e *state) {
	select {
	case <-e.cancel:
		return
	case <-e.timer.C:
	}
	m.mu.Lock()
	if e.detached {
		m.mu.Unlock()
		return
	}
	e.detached = true
	if m.cur == e {
		m.cur = nil
	}
	m.mu.Unlock()
	m.close(e)
}

// close makes e's covering LSN durable and releases its waiters. The
// caller must have detached e; the underlying WAL serializes syncs, so
// overlapping closes of adjacent epochs are safe.
func (m *Manager) close(e *state) {
	e.err = m.opts.Sync(e.maxLSN)
	if e.err == nil {
		// Publish in max order: a stale close finishing late must not
		// regress the durable epoch.
		for {
			cur := m.durable.Load()
			if e.num <= cur || m.durable.CompareAndSwap(cur, e.num) {
				break
			}
		}
	}
	if st := m.opts.Stats; st != nil {
		st.Epochs.Add(1)
		st.Commits.Add(e.count)
		if st.CommitsPerEpoch != nil {
			st.CommitsPerEpoch.Observe(time.Duration(e.count))
		}
		if st.CloseLatency != nil {
			st.CloseLatency.Observe(m.opts.Clock.Now().Sub(e.opened))
		}
	}
	close(e.done)
}

// Close flushes the open epoch (releasing its waiters durable) and
// rejects further commits. Safe to call more than once.
func (m *Manager) Close() error {
	m.mu.Lock()
	m.closed = true
	e := m.cur
	if e != nil && !e.detached {
		e.detached = true
		m.cur = nil
	} else {
		e = nil
	}
	m.mu.Unlock()
	if e == nil {
		return nil
	}
	e.timer.Stop()
	close(e.cancel)
	m.close(e)
	return e.err
}
