// Package workload generates the update streams the experiments drive
// through both systems. The primary generator is the paper's SCM
// pattern (§4): at site 0 (the maker) stock increases "by at most 20% of
// the initial amount of data randomly"; at the retailer sites it
// decreases by at most 10%. An additional generator (skewed key choice)
// supports the extension studies.
//
// Generators are deterministic from their seed and are pure producers:
// the same generator instance drives the proposed and the conventional
// system with the identical operation sequence.
package workload

import (
	"fmt"

	"avdb/internal/rng"
)

// Op is one generated operation.
type Op struct {
	Site  int    // originating site
	Key   string // product key
	Delta int64  // signed stock change
}

// Generator produces a deterministic stream of operations.
type Generator interface {
	// Next returns the next operation.
	Next() Op
}

// SCMConfig parameterizes the paper's workload.
type SCMConfig struct {
	// Sites is the number of sites; site 0 is the maker.
	Sites int
	// Keys is the product catalog.
	Keys []string
	// InitialAmount is each product's starting stock (the base for the
	// percentage bounds).
	InitialAmount int64
	// MakerIncreaseFrac bounds the maker's increments: delta is uniform
	// in [1, frac*InitialAmount] (paper: 0.2).
	MakerIncreaseFrac float64
	// RetailerDecreaseFrac bounds the retailers' decrements: delta is
	// uniform in [-frac*InitialAmount, -1] (paper: 0.1).
	RetailerDecreaseFrac float64
	// Seed makes the stream reproducible.
	Seed uint64
	// RoundRobinSites, when set, cycles through sites 0,1,...,N-1 instead
	// of choosing uniformly at random (an alternative reading of the
	// paper's unspecified update interleaving).
	RoundRobinSites bool
}

// SCM is the paper's workload generator.
type SCM struct {
	cfg      SCMConfig
	r        *rng.Rand
	makerMax int64
	retMax   int64
	rr       int
}

// NewSCM builds the generator, applying the paper's defaults for zero
// fields (20% / 10%).
func NewSCM(cfg SCMConfig) (*SCM, error) {
	if cfg.Sites < 1 {
		return nil, fmt.Errorf("workload: need >= 1 site")
	}
	if len(cfg.Keys) == 0 {
		return nil, fmt.Errorf("workload: need >= 1 key")
	}
	if cfg.InitialAmount < 1 {
		return nil, fmt.Errorf("workload: need positive initial amount")
	}
	if cfg.MakerIncreaseFrac == 0 {
		cfg.MakerIncreaseFrac = 0.20
	}
	if cfg.RetailerDecreaseFrac == 0 {
		cfg.RetailerDecreaseFrac = 0.10
	}
	g := &SCM{
		cfg:      cfg,
		r:        rng.New(cfg.Seed),
		makerMax: int64(cfg.MakerIncreaseFrac * float64(cfg.InitialAmount)),
		retMax:   int64(cfg.RetailerDecreaseFrac * float64(cfg.InitialAmount)),
	}
	if g.makerMax < 1 {
		g.makerMax = 1
	}
	if g.retMax < 1 {
		g.retMax = 1
	}
	return g, nil
}

// Next implements Generator.
func (g *SCM) Next() Op {
	var site int
	if g.cfg.RoundRobinSites {
		site = g.rr % g.cfg.Sites
		g.rr++
	} else {
		site = g.r.Intn(g.cfg.Sites)
	}
	key := g.cfg.Keys[g.r.Intn(len(g.cfg.Keys))]
	var delta int64
	if site == 0 {
		delta = g.r.Range(1, g.makerMax)
	} else {
		delta = -g.r.Range(1, g.retMax)
	}
	return Op{Site: site, Key: key, Delta: delta}
}

// SkewedConfig parameterizes a hot-key workload: a fraction of the
// operations concentrates on a small fraction of the keys (an 80/20-style
// contention study the paper's setup cannot express).
type SkewedConfig struct {
	SCMConfig
	// HotKeyFrac of the keys receive HotOpFrac of the operations.
	HotKeyFrac float64
	HotOpFrac  float64
}

// Skewed wraps SCM with a biased key choice.
type Skewed struct {
	inner *SCM
	cfg   SkewedConfig
	r     *rng.Rand
	hot   []string
	cold  []string
}

// NewSkewed builds a skewed generator (defaults: 20% of keys take 80% of
// the operations).
func NewSkewed(cfg SkewedConfig) (*Skewed, error) {
	inner, err := NewSCM(cfg.SCMConfig)
	if err != nil {
		return nil, err
	}
	if cfg.HotKeyFrac == 0 {
		cfg.HotKeyFrac = 0.2
	}
	if cfg.HotOpFrac == 0 {
		cfg.HotOpFrac = 0.8
	}
	nHot := int(cfg.HotKeyFrac * float64(len(cfg.Keys)))
	if nHot < 1 {
		nHot = 1
	}
	if nHot > len(cfg.Keys) {
		nHot = len(cfg.Keys)
	}
	return &Skewed{
		inner: inner,
		cfg:   cfg,
		r:     rng.New(cfg.Seed ^ 0xdead),
		hot:   cfg.Keys[:nHot],
		cold:  cfg.Keys[nHot:],
	}, nil
}

// Next implements Generator.
func (s *Skewed) Next() Op {
	op := s.inner.Next()
	if s.r.Bool(s.cfg.HotOpFrac) || len(s.cold) == 0 {
		op.Key = s.hot[s.r.Intn(len(s.hot))]
	} else {
		op.Key = s.cold[s.r.Intn(len(s.cold))]
	}
	return op
}

// Keys builds the canonical catalog key list used by clusters and
// baselines (product-0000 ... product-NNNN).
func Keys(items int) []string {
	out := make([]string, items)
	for i := range out {
		out[i] = fmt.Sprintf("product-%04d", i)
	}
	return out
}
