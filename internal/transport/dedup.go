package transport

import (
	"sync"

	"avdb/internal/wire"
)

// Deduper makes request receipt idempotent. When faults (or Call
// retransmission) can deliver the same request envelope more than once,
// running the handler again would double-apply its effects — an AV
// grant debited twice, a 2PC decision acked inconsistently. The deduper
// keys on (sender, envelope seq): the first delivery runs the handler
// and records the encoded reply; duplicates replay that reply byte for
// byte without touching the handler. Duplicates that arrive while the
// first delivery is still executing are discarded — the retransmitting
// caller will try again after the handler finishes.
//
// The cache is a bounded FIFO per sender. Retransmission windows are
// short (a Call's lifetime), so a duplicate arriving after its entry
// was evicted is possible only far outside that window. The layers
// above tolerate re-execution for exactly that reason: a re-run AV
// grant debits again and loses that slack with its unread reply, never
// minting any, and 2PC answers from its decision cache.
type Deduper struct {
	mu      sync.Mutex
	perFrom map[wire.SiteID]*dedupQueue
	limit   int
}

type dedupQueue struct {
	order   []uint64
	entries map[uint64]*dedupEntry
}

type dedupEntry struct {
	done  bool
	reply []byte // encoded reply envelope; nil when the handler returned no reply
}

// DefaultDedupWindow is how many request seqs per sender a Deduper
// remembers by default.
const DefaultDedupWindow = 1024

// NewDeduper creates a deduper remembering the last `window` request
// seqs per sender (DefaultDedupWindow when window <= 0).
func NewDeduper(window int) *Deduper {
	if window <= 0 {
		window = DefaultDedupWindow
	}
	return &Deduper{perFrom: make(map[wire.SiteID]*dedupQueue), limit: window}
}

// Begin registers receipt of request (from, seq). It returns
// (run=true) when the caller should execute the handler, or
// (run=false, replay) when this is a duplicate: a non-nil replay is the
// cached encoded reply to resend, a nil replay means drop the duplicate
// (first execution still in flight, or it produced no reply).
func (d *Deduper) Begin(from wire.SiteID, seq uint64) (run bool, replay []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	q := d.perFrom[from]
	if q == nil {
		q = &dedupQueue{entries: make(map[uint64]*dedupEntry)}
		d.perFrom[from] = q
	}
	if e := q.entries[seq]; e != nil {
		if e.done {
			return false, e.reply
		}
		return false, nil
	}
	if len(q.order) >= d.limit {
		evict := q.order[0]
		q.order = q.order[1:]
		delete(q.entries, evict)
	}
	q.entries[seq] = &dedupEntry{}
	q.order = append(q.order, seq)
	return true, nil
}

// Finish records the encoded reply for request (from, seq) so later
// duplicates replay it. Pass nil when the handler produced no reply.
func (d *Deduper) Finish(from wire.SiteID, seq uint64, reply []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	q := d.perFrom[from]
	if q == nil {
		return
	}
	if e := q.entries[seq]; e != nil {
		e.done = true
		e.reply = reply
	}
}

// Forget drops all state for one sender — used when the underlying
// connection to that sender is torn down (its seq space may restart).
func (d *Deduper) Forget(from wire.SiteID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.perFrom, from)
}
