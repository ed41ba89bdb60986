package main

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"
)

// probeConn is a text-protocol connection the oracle owns, separate from
// the load connections.
type probeConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialProbe(addr string) (*probeConn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &probeConn{c: c, br: bufio.NewReader(c)}, nil
}

func (p *probeConn) close() { p.c.Close() }

// ask sends cmd for every key, pipelined in batches small enough that
// neither side's socket buffer fills, and returns the numeric replies.
// found[i] is false where the node answered ERR (a key it does not host).
func (p *probeConn) ask(cmd string, keys []int) (vals []int64, found []bool, err error) {
	vals, found = make([]int64, len(keys)), make([]bool, len(keys))
	const batch = 256
	p.c.SetDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck // live socket
	for lo := 0; lo < len(keys); lo += batch {
		hi := lo + batch
		if hi > len(keys) {
			hi = len(keys)
		}
		var b strings.Builder
		for _, k := range keys[lo:hi] {
			fmt.Fprintf(&b, "%s %s\n", cmd, keyName(k))
		}
		if _, err := p.c.Write([]byte(b.String())); err != nil {
			return nil, nil, err
		}
		for i := lo; i < hi; i++ {
			line, err := p.br.ReadString('\n')
			if err != nil {
				return nil, nil, err
			}
			f := strings.Fields(line)
			if len(f) == 2 && f[0] == "OK" {
				if vals[i], err = strconv.ParseInt(f[1], 10, 64); err != nil {
					return nil, nil, fmt.Errorf("%s %s: reply %q", cmd, keyName(keys[i]), line)
				}
				found[i] = true
			}
		}
	}
	return vals, found, nil
}

func (p *probeConn) sync() error {
	p.c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // live socket
	if _, err := p.c.Write([]byte("SYNC\n")); err != nil {
		return err
	}
	line, err := p.br.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.HasPrefix(line, "OK") {
		return fmt.Errorf("SYNC: %s", strings.TrimSpace(line))
	}
	return nil
}

// oracle judges a finished workload through the text protocol alone.
type oracle struct {
	conns   []*probeConn
	initial int64
}

func dialOracle(c *cluster) (*oracle, error) {
	o := &oracle{initial: c.w.initial}
	for _, n := range c.nodes {
		p, err := dialProbe(n.client)
		if err != nil {
			o.close()
			return nil, err
		}
		o.conns = append(o.conns, p)
	}
	return o, nil
}

func (o *oracle) close() {
	for _, p := range o.conns {
		p.close()
	}
}

// hosting asks every site to READ every key and returns, per key, the
// sites that hold it: the client-side way to learn a partition map.
func (o *oracle) hosting(keys int) ([][]int, error) {
	all := make([]int, keys)
	for i := range all {
		all[i] = i
	}
	hosts := make([][]int, keys)
	for site, p := range o.conns {
		_, found, err := p.ask("READ", all)
		if err != nil {
			return nil, fmt.Errorf("site %d: %w", site, err)
		}
		for k, f := range found {
			if f {
				hosts[k] = append(hosts[k], site)
			}
		}
	}
	for k, h := range hosts {
		if len(h) == 0 {
			return nil, fmt.Errorf("%s is hosted nowhere", keyName(k))
		}
	}
	return hosts, nil
}

// settle runs SYNC rounds on every node until all hosting replicas READ
// the same value for every touched key, and returns how long that took
// together with the agreed values.
func (o *oracle) settle(keys []int, hosts [][]int) (time.Duration, []int64, error) {
	start := time.Now()
	var last string
	for round := 0; round < 40; round++ {
		problem := ""
		for site, p := range o.conns {
			if err := p.sync(); err != nil {
				problem = fmt.Sprintf("site %d: %v", site, err)
			}
		}
		reads := make([][]int64, len(o.conns))
		for site, p := range o.conns {
			vals, _, err := p.ask("READ", keys)
			if err != nil {
				return 0, nil, fmt.Errorf("site %d: %w", site, err)
			}
			reads[site] = vals
		}
		agreed := make([]int64, len(keys))
		for i, k := range keys {
			agreed[i] = reads[hosts[k][0]][i]
			for _, site := range hosts[k][1:] {
				if reads[site][i] != agreed[i] && problem == "" {
					problem = fmt.Sprintf("%s: site %d reads %d, site %d reads %d",
						keyName(k), hosts[k][0], agreed[i], site, reads[site][i])
				}
			}
		}
		if problem == "" {
			return time.Since(start), agreed, nil
		}
		last = problem
		time.Sleep(50 * time.Millisecond)
	}
	return 0, nil, fmt.Errorf("replicas still disagree after 40 SYNC rounds: %s", last)
}

// check asserts, for every touched key, that the agreed value is the
// initial stock plus the acknowledged deltas (widened only by updates
// whose outcome is unknown) and that the sites' AV together do not
// exceed it. It returns the first violation.
func (o *oracle) check(keys []int, hosts [][]int, agreed []int64, ledgers ...*ledger) error {
	avSum := make([]int64, len(keys))
	for site, p := range o.conns {
		av, _, err := p.ask("AV", keys)
		if err != nil {
			return fmt.Errorf("site %d: %w", site, err)
		}
		for i, v := range av {
			avSum[i] += v
		}
	}
	for i, k := range keys {
		lo, hi := o.initial, o.initial
		for _, l := range ledgers {
			lo += l.acked[k] + l.below[k]
			hi += l.acked[k] + l.above[k]
		}
		if agreed[i] < lo || agreed[i] > hi {
			return fmt.Errorf("%s reads %d at sites %v, acknowledged updates leave [%d, %d]", keyName(k), agreed[i], hosts[k], lo, hi)
		}
		if avSum[i] > agreed[i] {
			return fmt.Errorf("%s: AV over all sites is %d but stock is %d (AV minted)", keyName(k), avSum[i], agreed[i])
		}
	}
	return nil
}

// touchedKeys merges the ledgers' key sets, sorted.
func touchedKeys(ledgers ...*ledger) []int {
	set := map[int]struct{}{}
	for _, l := range ledgers {
		for k := range l.touched {
			set[k] = struct{}{}
		}
	}
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
