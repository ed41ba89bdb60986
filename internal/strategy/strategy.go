// Package strategy implements the accelerator's *selecting* and
// *deciding* functions and the gossiped AV view they work from.
//
// The paper adopts the policy of Kawazoe/Shibuya/Tokuyama's SODA'99
// electronic-money distribution system: a requester asks for exactly its
// shortage, a grantor donates half of what it keeps, and the target site
// is chosen by the amount of AV it is believed to hold — belief formed
// from information "collected at the necessary communication for AV
// management", i.e. piggybacked on AV replies and possibly stale.
//
// Each policy is pluggable so the ablation experiments (DESIGN.md A1/A2/A7)
// can quantify what the SODA'99 choices contribute.
package strategy

import (
	"sort"
	"sync"

	"avdb/internal/rng"
	"avdb/internal/wire"
)

// Candidate is a potential AV donor as the selector sees it.
type Candidate struct {
	Site  wire.SiteID
	Known int64 // last-gossiped available AV; 0 when never heard from
}

// Selector orders candidate sites for AV requests; the accelerator asks
// them in the returned order until its shortage is covered.
type Selector interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Order returns the candidates in preference order. It may reorder
	// in place and must not add or drop entries.
	Order(cands []Candidate, r *rng.Rand) []Candidate
}

// Decider chooses transfer volumes.
type Decider interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Request returns how much AV to ask a peer for, given the remaining
	// shortage. (SODA'99: the shortage itself.)
	Request(shortage int64) int64
	// Grant returns how much a site holding avail free AV donates to a
	// peer requesting req. The caller caps the result at avail.
	Grant(avail, req int64) int64
}

// Policy bundles the two functions.
type Policy struct {
	Selector Selector
	Decider  Decider
}

// SODA99 is the paper's policy: ask for the shortage, grant half of the
// holding, prefer the largest known holder.
func SODA99() Policy {
	return Policy{Selector: MaxKnown{}, Decider: GrantHalf{}}
}

// MaxKnown prefers the site believed to hold the most AV; ties and
// never-heard-from sites fall back to ascending site ID so the order is
// deterministic.
type MaxKnown struct{}

// Name implements Selector.
func (MaxKnown) Name() string { return "max-known" }

// Order implements Selector.
func (MaxKnown) Order(cands []Candidate, r *rng.Rand) []Candidate {
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Known != cands[j].Known {
			return cands[i].Known > cands[j].Known
		}
		return cands[i].Site < cands[j].Site
	})
	return cands
}

// ByID asks peers in ascending site ID and ignores the view — what
// MaxKnown degenerates to when no AV view is gossiped (A7's "off" row).
type ByID struct{}

// Name implements Selector.
func (ByID) Name() string { return "by-id" }

// Order implements Selector.
func (ByID) Order(cands []Candidate, r *rng.Rand) []Candidate {
	sort.Slice(cands, func(i, j int) bool { return cands[i].Site < cands[j].Site })
	return cands
}

// RandomSelect asks peers in uniformly random order.
type RandomSelect struct{}

// Name implements Selector.
func (RandomSelect) Name() string { return "random" }

// Order implements Selector.
func (RandomSelect) Order(cands []Candidate, r *rng.Rand) []Candidate {
	r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands
}

// RoundRobin rotates through peers, spreading requests evenly regardless
// of belief. It is stateful per accelerator.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

// Name implements Selector.
func (rr *RoundRobin) Name() string { return "round-robin" }

// Order implements Selector.
func (rr *RoundRobin) Order(cands []Candidate, r *rng.Rand) []Candidate {
	if len(cands) == 0 {
		return cands
	}
	cands = ByID{}.Order(cands, r)
	rr.mu.Lock()
	start := rr.next % len(cands)
	rr.next++
	rr.mu.Unlock()
	rotated := make([]Candidate, 0, len(cands))
	rotated = append(rotated, cands[start:]...)
	rotated = append(rotated, cands[:start]...)
	copy(cands, rotated)
	return cands
}

// GrantHalf is the SODA'99 decider: donate half of the free holding,
// regardless of the request size.
type GrantHalf struct{}

// Name implements Decider.
func (GrantHalf) Name() string { return "half" }

// Request implements Decider.
func (GrantHalf) Request(shortage int64) int64 { return shortage }

// Grant implements Decider.
func (GrantHalf) Grant(avail, req int64) int64 { return avail / 2 }

// GrantExact donates exactly what was asked (capped by the caller at
// avail) — the minimal-transfer ablation.
type GrantExact struct{}

// Name implements Decider.
func (GrantExact) Name() string { return "exact" }

// Request implements Decider.
func (GrantExact) Request(shortage int64) int64 { return shortage }

// Grant implements Decider.
func (GrantExact) Grant(avail, req int64) int64 {
	if req < avail {
		return req
	}
	return avail
}

// GrantAll donates the entire free holding — the maximal-transfer
// ablation (fewest future requests, worst donor depletion).
type GrantAll struct{}

// Name implements Decider.
func (GrantAll) Name() string { return "all" }

// Request implements Decider.
func (GrantAll) Request(shortage int64) int64 { return shortage }

// Grant implements Decider.
func (GrantAll) Grant(avail, req int64) int64 { return avail }

// GrantGenerous donates the larger of the request and half the holding:
// it always satisfies the request when possible, and tops up beyond it
// when the donor is rich.
type GrantGenerous struct{}

// Name implements Decider.
func (GrantGenerous) Name() string { return "generous" }

// Request implements Decider.
func (GrantGenerous) Request(shortage int64) int64 { return shortage }

// Grant implements Decider.
func (GrantGenerous) Grant(avail, req int64) int64 {
	g := avail / 2
	if req > g {
		g = req
	}
	if g > avail {
		g = avail
	}
	return g
}

// View is a site's (possibly stale) belief about how much available AV
// every other site holds per key, learned from AVReply piggybacks. It is
// safe for concurrent use.
type View struct {
	mu    sync.Mutex
	known map[wire.SiteID]map[string]int64
}

// NewView creates an empty view.
func NewView() *View {
	return &View{known: make(map[wire.SiteID]map[string]int64)}
}

// Observe records that site was seen holding avail free AV for key.
func (v *View) Observe(site wire.SiteID, key string, avail int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m := v.known[site]
	if m == nil {
		m = make(map[string]int64)
		v.known[site] = m
	}
	m[key] = avail
}

// ObserveAll records a batch of gossiped AVInfo entries.
func (v *View) ObserveAll(infos []wire.AVInfo) {
	for _, in := range infos {
		v.Observe(in.Site, in.Key, in.Avail)
	}
}

// Known returns the last observation of site's AV for key (0, false when
// never observed).
func (v *View) Known(site wire.SiteID, key string) (int64, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.known[site]
	if !ok {
		return 0, false
	}
	n, ok := m[key]
	return n, ok
}

// Candidates builds the candidate list for key over the given peers.
func (v *View) Candidates(key string, peers []wire.SiteID) []Candidate {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]Candidate, 0, len(peers))
	for _, p := range peers {
		var known int64
		if m, ok := v.known[p]; ok {
			known = m[key]
		}
		out = append(out, Candidate{Site: p, Known: known})
	}
	return out
}
