package main

import (
	"bufio"
	"net"
	"sort"
	"testing"
	"time"
)

// fakeServer answers every UPDATE line with an OK, in order, one at a
// time like avnode does, except that it sleeps for stall before answering
// request number stallAt.
func fakeServer(t *testing.T, stallAt int, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for i := 0; sc.Scan(); i++ {
			if i == stallAt {
				time.Sleep(stall)
			}
			if _, err := conn.Write([]byte("OK delay-local token=1:7\n")); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// The open loop must keep to its schedule while the server stalls and
// charge the stall to every request that was due during it. A generator
// that waited for each reply before sending the next (coordinated
// omission) would report one slow request here, not a hundred.
func TestOpenLoopChargesAStallToEveryRequestDueDuringIt(t *testing.T) {
	const (
		rate    = 500.0
		stall   = 200 * time.Millisecond
		stallAt = 100 // due 200 ms in
		length  = time.Second
	)
	a, _ := posStreams(1)
	s, err := dialStream(time.Now(), fakeServer(t, stallAt, stall), a)
	if err != nil {
		t.Fatal(err)
	}
	defer s.conn.Close()
	s.sh = &shared{lastSite: map[int]int{}}
	tally := s.run(0, length, rate, nil, true)

	if want := int(rate * length.Seconds()); tally.attempted != want || tally.okUpdates != want || tally.failed != 0 {
		t.Fatalf("attempted %d ok %d failed %d, want %d, %d, 0", tally.attempted, tally.okUpdates, tally.failed, want, want)
	}
	var late []time.Duration
	slow := 0
	for i, x := range s.samples {
		late = append(late, x.sent-x.due)
		lat := x.done - x.due
		// Request i is due at i/rate; the stall covers [stallAt/rate,
		// stallAt/rate + stall), so request stallAt+k waits out what is
		// left of it.
		if k := i - stallAt; k >= 0 && k < int(stall.Seconds()*rate) {
			rest := stall - time.Duration(float64(k)/rate*float64(time.Second))
			if lat < rest-5*time.Millisecond {
				t.Errorf("request %d, due %v into the stall, took %v: the remaining %v of the stall was not charged to it", i, stall-rest, lat, rest)
			}
		}
		if lat > 20*time.Millisecond {
			slow++
		}
	}
	if want := int(stall.Seconds()*rate) * 85 / 100; slow < want {
		t.Errorf("%d requests took over 20 ms, want at least %d: the stall was not charged to the requests due during it", slow, want)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if p90 := late[len(late)*9/10]; p90 > 5*time.Millisecond {
		t.Errorf("requests left %v late at the 90th percentile: the writer waited for replies", p90)
	}
}

// The closed loop keeps saturateDepth requests outstanding and no more,
// and an ERR reply or a missing one leaves the update's outcome unknown.
func TestReplyParsingAndLedger(t *testing.T) {
	for _, c := range []struct {
		line  string
		ok    bool
		path  uint8
		token string
	}{
		{"OK delay-local token=1:2001\n", true, pathLocal, "1:2001"},
		{"OK delay-transfer\n", true, pathTransfer, ""},
		{"OK immediate token=0:9\n", true, pathImmediate, "0:9"},
		{"ERR core: insufficient allowable volume\n", false, pathNone, ""},
		{"OK 17\n", false, pathNone, ""},
	} {
		ok, path, token := parseReply([]byte(c.line))
		if ok != c.ok || path != c.path || string(token) != c.token {
			t.Errorf("parseReply(%q) = %v %v %q, want %v %v %q", c.line, ok, path, token, c.ok, c.path, c.token)
		}
	}
	if got := string(appendUpdate(nil, op{key: 7, delta: -3})); got != "UPDATE product-0007 -3\n" {
		t.Errorf("appendUpdate = %q", got)
	}
	if got := string(appendUpdate(nil, op{key: 3999, delta: 12})); got != "UPDATE product-3999 12\n" {
		t.Errorf("appendUpdate = %q", got)
	}
	l := newLedger()
	l.ack(op{key: 1, delta: -3})
	l.unknown(op{key: 1, delta: -2})
	l.unknown(op{key: 1, delta: 4})
	if l.acked[1] != -3 || l.below[1] != -2 || l.above[1] != 4 {
		t.Errorf("ledger = %+v", l)
	}
}
