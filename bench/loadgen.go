package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Paths an OK reply can name.
const (
	pathNone uint8 = iota
	pathLocal
	pathTransfer
	pathImmediate
)

// sample is one operation of the paced phase as the client saw it.
// Times are offsets from the run's start; latency is done − due, that
// is, from when the request was meant to leave.
type sample struct {
	kind            opKind
	path            uint8
	site            int8 // site the reply's token named: where it was applied; -1 without a token
	ok              bool
	due, sent, done time.Duration
}

// ledger is what a stream knows about the effect of its updates: the
// sum of acknowledged deltas per key, and per key how far ops whose
// outcome is unknown may have moved the value either way.
type ledger struct {
	acked   map[int]int64
	below   map[int]int64 // ≤ 0: unknown decrements
	above   map[int]int64 // ≥ 0: unknown increments
	touched map[int]struct{}
}

func newLedger() *ledger {
	return &ledger{acked: map[int]int64{}, below: map[int]int64{}, above: map[int]int64{}, touched: map[int]struct{}{}}
}

func (l *ledger) ack(o op) {
	l.acked[o.key] += o.delta
	l.touched[o.key] = struct{}{}
}

// unknown widens the key's expected value: an ERR reply or a missing one
// leaves the update possibly applied.
func (l *ledger) unknown(o op) {
	if o.delta < 0 {
		l.below[o.key] += o.delta
	} else {
		l.above[o.key] += o.delta
	}
	l.touched[o.key] = struct{}{}
}

// tally counts one phase of one stream.
type tally struct {
	attempted  int
	failed     int // ERR, wrong answer, or unanswered
	unfinished int // unanswered when the grace period ran out
	okUpdates  int
	// okBySlice splits okUpdates over maxSlices equal parts of the phase,
	// by when the reply arrived.
	okBySlice [maxSlices]int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.unfinished += o.unfinished
	t.okUpdates += o.okUpdates
	for i, n := range o.okBySlice {
		t.okBySlice[i] += n
	}
}

// pending is a request on its way: written, not yet answered.
type pending struct {
	op        op
	due, sent time.Duration
}

// grace is how long after a window closes a reply still counts.
const grace = 2 * time.Second

// pacedBacklog bounds the requests one connection may have unanswered in
// the open loop. It is far beyond any healthy run; a server that falls
// this far behind blocks the writer, which the scheduler-lag metric
// then reports.
const pacedBacklog = 1 << 14

// saturateDepth is the closed loop's outstanding requests per connection.
const saturateDepth = 8

// spinWindow is how long before a due time the pacer stops sleeping and
// starts spinning.
const spinWindow = 200 * time.Microsecond

// sleepUntil returns when the run clock reads due. time.Sleep is no use
// here: the runtime parks in epoll_wait, whose timeout counts whole
// milliseconds, so it wakes about a millisecond late, which is more than
// the latencies being measured. nanosleep wakes 0.1 to 0.3 ms late on
// this kind of machine, so it is asked to wake spinWindow early and the
// rest is spun away.
func sleepUntil(t0 time.Time, due time.Duration) {
	if d := due - time.Since(t0) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only lengthens the spin
	}
	for time.Since(t0) < due {
	}
}

// realtime pins the calling goroutine to its thread and asks for the
// lowest real-time priority for it, so that a timer wake-up pre-empts a
// node instead of queueing behind it. It reports whether that was
// granted; without it the run still works and reports how late it ran.
func realtime() bool {
	runtime.LockOSThread()
	param := struct{ priority int32 }{1}
	const schedFIFO = 1
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&param)))
	return errno == 0
}

// ack is the latest acknowledged write of the update stream, what a
// fresh read asks to see.
type ack struct {
	key    int
	site   int
	token  string
	expect int64 // the key's value once this write is applied
}

// shared is what the two streams of a run tell each other.
type shared struct {
	mu       sync.Mutex
	latest   ack
	haveAck  bool
	lastSite map[int]int // key → site its latest token named

	// ackedA counts stream A's acknowledged ops in order, for the
	// closed-loop funding rule of scm-mixed.
	ackedA atomic.Int64
}

// updateStream drives one text-protocol connection.
type updateStream struct {
	env     *env
	t0      time.Time
	conn    net.Conn
	br      *bufio.Reader
	gen     func() op
	initial int64
	sh      *shared
	isA     bool
	// phase shifts the stream's due times by this share of an interval,
	// so that the two streams do not fire in the same instant.
	phase float64
	// wantToken keeps each reply's token for the read stream.
	wantToken bool

	issued  int // ops generated so far, over all phases
	ledger  *ledger
	samples []sample
	broken  error // set once the connection can no longer be trusted
	// realtime records whether the writer got real-time priority.
	realtime bool
}

func dialStream(t0 time.Time, addr string, gen func() op) (*updateStream, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &updateStream{t0: t0, conn: c, br: bufio.NewReader(c), gen: gen, ledger: newLedger()}, nil
}

// appendUpdate formats one UPDATE line.
func appendUpdate(b []byte, o op) []byte {
	b = append(b, "UPDATE product-"...)
	if o.key < 1000 {
		b = append(b, '0')
	}
	if o.key < 100 {
		b = append(b, '0')
	}
	if o.key < 10 {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(o.key), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, o.delta, 10)
	return append(b, '\n')
}

// parseReply splits "OK <path> [token=S:L]" or "ERR ...".
func parseReply(line []byte) (ok bool, path uint8, token []byte) {
	f := bytes.Fields(line)
	if len(f) < 2 || string(f[0]) != "OK" {
		return false, pathNone, nil
	}
	switch string(f[1]) {
	case "delay-local":
		path = pathLocal
	case "delay-transfer":
		path = pathTransfer
	case "immediate":
		path = pathImmediate
	default:
		return false, pathNone, nil
	}
	if len(f) > 2 && bytes.HasPrefix(f[2], []byte("token=")) {
		token = f[2][len("token="):]
	}
	return true, path, token
}

// run issues the stream's ops from `from` until `to` (offsets from t0)
// and returns once every reply has arrived or the grace period is over.
// rate > 0 is the open loop: op i is due at from + i/rate, is written
// then whether or not earlier replies have arrived, and is timed from
// that due time. rate == 0 is the closed loop with saturateDepth
// requests outstanding; ready, when set, holds op i back until it
// reports true. keep records a sample per op.
func (s *updateStream) run(from, to time.Duration, rate float64, ready func(i int) bool, keep bool) tally {
	depth := saturateDepth
	if rate > 0 {
		depth = pacedBacklog
	}
	// Capacity is the outstanding-request bound of the loop in use.
	pend := make(chan pending, depth)
	deadline := s.t0.Add(to + grace)
	s.conn.SetDeadline(deadline) //nolint:errcheck // net.Conn deadlines do not fail on a live socket

	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(pend)
		defer s.env.guard()
		// The thread is not unlocked, so it ends with this goroutine and
		// its priority dies with it.
		s.realtime = realtime()
		var buf []byte
		for i := 0; ; i++ {
			due := time.Since(s.t0)
			if rate > 0 {
				due = from + time.Duration((float64(i)+s.phase)/rate*float64(time.Second))
				sleepUntil(s.t0, due)
			} else if ready != nil {
				for !ready(s.issued) && time.Since(s.t0) < to {
					time.Sleep(50 * time.Microsecond)
				}
				due = time.Since(s.t0)
			}
			if due >= to {
				return
			}
			o := s.gen()
			s.issued++
			buf = appendUpdate(buf[:0], o)
			pend <- pending{op: o, due: due, sent: time.Since(s.t0)}
			if _, werr = s.conn.Write(buf); werr != nil {
				return
			}
		}
	}()

	var t tally
	for p := range pend {
		t.attempted++
		if s.broken != nil {
			s.lose(&t, p, keep)
			continue
		}
		line, err := s.br.ReadSlice('\n')
		done := time.Since(s.t0)
		if err != nil {
			s.broken = fmt.Errorf("reply missing %v after it was due: %w", done-p.due, err)
			s.lose(&t, p, keep)
			continue
		}
		ok, path, token := parseReply(line)
		site := tokenSite(token)
		if ok {
			t.okUpdates++
			slice := int((done - from) * maxSlices / (to - from))
			if slice >= maxSlices { // answered in the grace period
				slice = maxSlices - 1
			}
			t.okBySlice[slice]++
			s.ledger.ack(p.op)
			if s.isA {
				s.sh.ackedA.Add(1)
			}
			if s.wantToken && site >= 0 {
				s.publish(p.op, site, token)
			}
		} else {
			t.failed++
			s.ledger.unknown(p.op)
		}
		if keep {
			s.samples = append(s.samples, sample{kind: opUpdate, path: path, site: int8(site), ok: ok, due: p.due, sent: p.sent, done: done})
		}
	}
	wg.Wait()
	if werr != nil && s.broken == nil {
		s.broken = fmt.Errorf("write: %w", werr)
	}
	return t
}

// lose books a request that will never be answered.
func (s *updateStream) lose(t *tally, p pending, keep bool) {
	t.failed++
	t.unfinished++
	s.ledger.unknown(p.op)
	if keep {
		s.samples = append(s.samples, sample{kind: opUpdate, due: p.due, sent: p.sent})
	}
}

// tokenSite returns the site of a "site:lsn" token, -1 if there is none.
func tokenSite(token []byte) int {
	colon := bytes.IndexByte(token, ':')
	if colon < 0 {
		return -1
	}
	site, err := strconv.Atoi(string(token[:colon]))
	if err != nil || site < 0 || site >= numSites {
		return -1
	}
	return site
}

// publish hands the read stream the write just acknowledged.
func (s *updateStream) publish(o op, site int, token []byte) {
	s.sh.mu.Lock()
	s.sh.latest = ack{key: o.key, site: site, token: string(token), expect: s.initial + s.ledger.acked[o.key]}
	s.sh.haveAck = true
	s.sh.lastSite[o.key] = site
	s.sh.mu.Unlock()
}

// readStream drives GET /read/stock over keep-alive HTTP, one request at
// a time: a read that outlasts its interval delays the next ones, and
// because each is timed from its due time the delay is charged to them.
type readStream struct {
	t0      time.Time
	client  *http.Client
	admins  []string // admin address per site
	home    []int    // key → a site hosting it, for keys never written
	gen     func() op
	sh      *shared
	samples []sample
}

type stockReply struct {
	Amount *int64 `json:"amount"`
	Found  *bool  `json:"found"`
}

func (s *readStream) run(from, to time.Duration, rate float64, keep bool) tally {
	var t tally
	for i := 0; ; i++ {
		due := time.Since(s.t0)
		if rate > 0 {
			due = from + time.Duration((float64(i)+0.5)/rate*float64(time.Second))
			sleepUntil(s.t0, due)
		}
		if due >= to {
			return t
		}
		o := s.gen()
		s.sh.mu.Lock()
		a, have := s.sh.latest, s.sh.haveAck
		site, written := s.sh.lastSite[o.key]
		s.sh.mu.Unlock()
		if o.kind == opReadFresh && !have {
			o.kind = opReadASAP // nothing acknowledged yet to be fresh about
		}
		var url string
		if o.kind == opReadFresh {
			o.key = a.key
			url = fmt.Sprintf("http://%s/read/stock?key=%s&token=%s&wait_ms=1000", s.admins[a.site], keyName(a.key), a.token)
		} else {
			if !written {
				site = s.home[o.key]
			}
			url = fmt.Sprintf("http://%s/read/stock?key=%s", s.admins[site], keyName(o.key))
		}
		sent := time.Since(s.t0)
		amount, err := s.get(url)
		done := time.Since(s.t0)
		ok := err == nil
		// Stream W only decrements, so a fresh read that shows more than
		// the acknowledged write left has missed it.
		if ok && o.kind == opReadFresh && amount > a.expect {
			ok = false
		}
		t.attempted++
		if !ok {
			t.failed++
		}
		if keep {
			s.samples = append(s.samples, sample{kind: o.kind, ok: ok, due: due, sent: sent, done: done})
		}
	}
}

func (s *readStream) get(url string) (int64, error) {
	resp, err := s.client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	var r stockReply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	if r.Found == nil || !*r.Found || r.Amount == nil {
		return 0, fmt.Errorf("key not found")
	}
	return *r.Amount, nil
}
