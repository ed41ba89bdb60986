package readplane

import (
	"sort"
	"time"

	"avdb/internal/wire"
)

// StockSnapshot is the per-site stock catalog as one stamped read: the
// amounts are a copy, so a held snapshot never changes.
type StockSnapshot struct {
	Site wire.SiteID
	// AppliedLSN is the stamp: every storage batch with LSN <= it is
	// reflected, none above it is.
	AppliedLSN uint64
	// AsOf is when the snapshot was read.
	AsOf time.Time
	// Amounts is every product's amount.
	Amounts map[string]int64
}

// Amount returns key's amount in this snapshot.
func (s *StockSnapshot) Amount(key string) (int64, bool) {
	v, ok := s.Amounts[key]
	return v, ok
}

// Len returns how many keys the snapshot holds.
func (s *StockSnapshot) Len() int { return len(s.Amounts) }

// Age returns how long before now the snapshot was read.
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
	for k := range stock.Amounts {
		keySet[k] = struct{}{}
	}
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
		AsOf:       stock.AsOf,
		Keys:       make([]GlobalKey, 0, len(keys)),
	}
	for _, k := range keys {
		row := GlobalKey{Key: k}
		row.Amount = stock.Amounts[k]
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
