package readplane

import (
	"hash/maphash"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"avdb/internal/wire"
)

// StockSnapshot is the per-site stock view: every product's amount as
// the local replica believes it, frozen at one watermark. Snapshots
// are immutable; readers share them freely.
type StockSnapshot struct {
	Site wire.SiteID
	// AppliedLSN is the watermark: every storage batch with LSN <= it
	// is reflected, none above it is.
	AppliedLSN uint64
	// AsOf is when the snapshot was published (the staleness anchor).
	AsOf time.Time
	// LastEvent is the event time of the newest applied batch (zero
	// before any batch).
	LastEvent time.Time

	root *stockRoot // never mutated once the snapshot is published
	n    int        // keys held
}

// The stock model is a fixed three-level table of hash segments, each a
// small map: stockFanout^3 segments under a root, mids and pages of
// stockFanout pointers each. Nodes carry the generation that allocated
// them. The applier bumps its generation on every publish, so every
// node a published snapshot can reach is older than the applier's
// generation and is copied before it is written; nodes the applier
// allocated since the last publish are written in place. A publish
// therefore shares the root (O(1)) and a mutation copies at most the
// three nodes above its key and the one segment the key falls in —
// never the catalog.
const (
	stockFanoutBits = 5
	stockFanout     = 1 << stockFanoutBits // 32^3 = 32768 segments
)

type stockNode[C any] struct {
	gen  uint64
	kids [stockFanout]*C
}

type (
	stockPage = stockNode[stockSeg]
	stockMid  = stockNode[stockPage]
	stockRoot = stockNode[stockMid]
)

type stockSeg struct {
	gen uint64
	m   map[string]int64
}

// stockSlot is a key's index at each level of the table.
type stockSlot [3]int

// stockSeed keys the segment hash. Per-process is fine: segment order is
// never observable (Each sorts, scan promises no order).
var stockSeed = maphash.MakeSeed()

func slotOf(key string) stockSlot {
	h := maphash.String(stockSeed, key)
	const mask = stockFanout - 1
	return stockSlot{int(h) & mask, int(h>>stockFanoutBits) & mask, int(h>>(2*stockFanoutBits)) & mask}
}

// findSeg returns the segment at slot, nil when nothing was ever stored
// there.
func findSeg(r *stockRoot, slot stockSlot) *stockSeg {
	if mid := r.kids[slot[0]]; mid != nil {
		if page := mid.kids[slot[1]]; page != nil {
			return page.kids[slot[2]]
		}
	}
	return nil
}

// Amount returns key's amount in this snapshot.
func (s *StockSnapshot) Amount(key string) (int64, bool) {
	if sg := findSeg(s.root, slotOf(key)); sg != nil {
		v, ok := sg.m[key]
		return v, ok
	}
	return 0, false
}

// Len returns how many keys the snapshot holds.
func (s *StockSnapshot) Len() int { return s.n }

// scan calls fn for every key in no particular order until fn returns
// false: for callers that discard the order anyway.
func (s *StockSnapshot) scan(fn func(key string, amount int64) bool) {
	for _, mid := range &s.root.kids {
		if mid == nil {
			continue
		}
		for _, page := range &mid.kids {
			if page == nil {
				continue
			}
			for _, sg := range &page.kids {
				if sg == nil {
					continue
				}
				for k, v := range sg.m {
					if !fn(k, v) {
						return
					}
				}
			}
		}
	}
}

// Each calls fn for every key in ascending order until fn returns
// false.
func (s *StockSnapshot) Each(fn func(key string, amount int64) bool) {
	type row struct {
		key    string
		amount int64
	}
	rows := make([]row, 0, s.n)
	s.scan(func(k string, v int64) bool {
		rows = append(rows, row{k, v})
		return true
	})
	slices.SortFunc(rows, func(a, b row) int { return strings.Compare(a.key, b.key) })
	for _, r := range rows {
		if !fn(r.key, r.amount) {
			return
		}
	}
}

// stockModel is the applier's writable side of the stock view.
type stockModel struct {
	root *stockRoot
	n    int
	gen  uint64 // nodes with this generation are unpublished, hence writable
}

// newStockModel builds a model holding amounts (bootstrap and resync;
// O(keys) is fine there).
func newStockModel(amounts map[string]int64) *stockModel {
	m := &stockModel{gen: 1, root: &stockRoot{gen: 1}}
	for k, v := range amounts {
		m.set(k, v)
	}
	return m
}

// owned returns the node in *at made writable for generation gen:
// created when absent, copied when a published snapshot may share it.
func owned[C any](at **stockNode[C], gen uint64) *stockNode[C] {
	n := *at
	switch {
	case n == nil:
		n = &stockNode[C]{gen: gen}
	case n.gen != gen:
		c := *n
		c.gen = gen
		n = &c
	default:
		return n
	}
	*at = n
	return n
}

// seg returns the writable segment at slot.
func (m *stockModel) seg(slot stockSlot) *stockSeg {
	mid := owned(&owned(&m.root, m.gen).kids[slot[0]], m.gen)
	page := owned(&mid.kids[slot[1]], m.gen)
	sg := page.kids[slot[2]]
	switch {
	case sg == nil:
		sg = &stockSeg{gen: m.gen, m: make(map[string]int64, 1)}
	case sg.gen != m.gen:
		sg = &stockSeg{gen: m.gen, m: maps.Clone(sg.m)}
	default:
		return sg
	}
	page.kids[slot[2]] = sg
	return sg
}

func (m *stockModel) set(key string, amount int64) {
	sg := m.seg(slotOf(key))
	if _, ok := sg.m[key]; !ok {
		m.n++
	}
	sg.m[key] = amount
}

// add applies a delta; an absent key starts from zero.
func (m *stockModel) add(key string, delta int64) {
	sg := m.seg(slotOf(key))
	v, ok := sg.m[key]
	if !ok {
		m.n++
	}
	sg.m[key] = v + delta
}

func (m *stockModel) del(key string) {
	slot := slotOf(key)
	// Look before copying: deleting an absent key must not clone.
	sg := findSeg(m.root, slot)
	if sg == nil {
		return
	}
	if _, ok := sg.m[key]; !ok {
		return
	}
	delete(m.seg(slot).m, key)
	m.n--
}

// freeze hands the current state to a snapshot and turns every node it
// reaches copy-on-write.
func (m *stockModel) freeze() (*stockRoot, int) {
	m.gen++
	return m.root, m.n
}

// Age returns how stale the snapshot is relative to now.
func (s *StockSnapshot) Age(now time.Time) time.Duration { return now.Sub(s.AsOf) }

// HotKey is one entry of the hot view.
type HotKey struct {
	Key     string
	Updates uint64 // batch ops observed for the key
	Volume  int64  // sum of absolute deltas
}

// HotSnapshot is the top-K most-updated keys, by update count (volume,
// then key, break ties).
type HotSnapshot struct {
	Site       wire.SiteID
	AppliedLSN uint64
	AsOf       time.Time
	Top        []HotKey
}

// hotStat is one key's cumulative counters. Counters only grow, which
// is what lets the top-K be kept incrementally.
type hotStat struct {
	key     string
	updates uint64
	volume  int64
	rank    int // index in hotModel.top, -1 when outside it
}

// outranks reports whether a sorts before b in the hot view.
func (a *hotStat) outranks(b *hotStat) bool {
	if a.updates != b.updates {
		return a.updates > b.updates
	}
	if a.volume != b.volume {
		return a.volume > b.volume
	}
	return a.key < b.key
}

// hotModel is the applier's side of the hot view: every key's counters
// plus the exact top K of them, kept in rank order.
type hotModel struct {
	k       int
	counts  map[string]*hotStat
	top     []*hotStat
	changed bool // top differs from the last published snapshot
}

func newHotModel(k int) *hotModel {
	return &hotModel{k: k, counts: make(map[string]*hotStat), top: make([]*hotStat, 0, k)}
}

// bump records one update of key. A bump only ever improves the bumped
// key's rank and leaves every other pair's order alone, so the top K is
// repaired by letting that one key enter and climb: O(K), not a sort.
func (hm *hotModel) bump(key string, delta int64) {
	h := hm.counts[key]
	if h == nil {
		h = &hotStat{key: key, rank: -1}
		hm.counts[key] = h
	}
	h.updates++
	if delta < 0 {
		delta = -delta
	}
	h.volume += delta
	if h.rank < 0 {
		switch last := len(hm.top) - 1; {
		case len(hm.top) < hm.k:
			h.rank = len(hm.top)
			hm.top = append(hm.top, h)
		case h.outranks(hm.top[last]):
			hm.top[last].rank = -1
			h.rank = last
			hm.top[last] = h
		default:
			return
		}
	}
	i := h.rank
	for ; i > 0 && h.outranks(hm.top[i-1]); i-- {
		hm.top[i] = hm.top[i-1]
		hm.top[i].rank = i
	}
	hm.top[i], h.rank = h, i
	hm.changed = true
}

// snapshot copies the top K into an immutable slice.
func (hm *hotModel) snapshot() []HotKey {
	out := make([]HotKey, len(hm.top))
	for i, h := range hm.top {
		out[i] = HotKey{Key: h.key, Updates: h.updates, Volume: h.volume}
	}
	hm.changed = false
	return out
}

// GlobalKey is one row of the cross-site position view.
type GlobalKey struct {
	Key string
	// Amount is the local replica's belief of the global stock.
	Amount int64
	// AVAvail / AVHeld are the site's own allowable volume for the key.
	AVAvail, AVHeld int64
	// PeerAV is the last-gossiped available AV per peer (absent when
	// never heard).
	PeerAV map[wire.SiteID]int64
	// KnownAV is AVAvail plus every known peer AV: the site's belief
	// of how much decrement headroom exists system-wide.
	KnownAV int64
}

// GlobalSnapshot is the cross-site position view. The stock column is
// bounded by AppliedLSN; the AV columns are sampled at build time.
type GlobalSnapshot struct {
	Site       wire.SiteID
	AppliedLSN uint64
	AsOf       time.Time
	Keys       []GlobalKey
}

// Key returns the row for key, nil when absent.
func (g *GlobalSnapshot) Key(key string) *GlobalKey {
	i := sort.Search(len(g.Keys), func(i int) bool { return g.Keys[i].Key >= key })
	if i < len(g.Keys) && g.Keys[i].Key == key {
		return &g.Keys[i]
	}
	return nil
}

// buildGlobal joins the stock snapshot with the AV samplers.
func buildGlobal(cfg *Config, stock *StockSnapshot) *GlobalSnapshot {
	keySet := make(map[string]struct{}, stock.Len())
	stock.scan(func(k string, _ int64) bool {
		keySet[k] = struct{}{}
		return true
	})
	if cfg.AV != nil {
		for _, k := range cfg.AV.Keys() {
			keySet[k] = struct{}{}
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := &GlobalSnapshot{
		Site:       cfg.Site,
		AppliedLSN: stock.AppliedLSN,
		AsOf:       cfg.Now(),
		Keys:       make([]GlobalKey, 0, len(keys)),
	}
	for _, k := range keys {
		row := GlobalKey{Key: k}
		row.Amount, _ = stock.Amount(k)
		if cfg.AV != nil {
			row.AVAvail = cfg.AV.Avail(k)
			row.AVHeld = cfg.AV.Held(k)
		}
		row.KnownAV = row.AVAvail
		if cfg.View != nil {
			for _, p := range cfg.Peers {
				if n, ok := cfg.View.Known(p, k); ok {
					if row.PeerAV == nil {
						row.PeerAV = make(map[wire.SiteID]int64, len(cfg.Peers))
					}
					row.PeerAV[p] = n
					row.KnownAV += n
				}
			}
		}
		out.Keys = append(out.Keys, row)
	}
	return out
}
