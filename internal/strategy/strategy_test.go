package strategy

import (
	"testing"

	"avdb/internal/rng"
	"avdb/internal/wire"
)

func sites(cands []Candidate) []wire.SiteID {
	out := make([]wire.SiteID, len(cands))
	for i, c := range cands {
		out[i] = c.Site
	}
	return out
}

func TestMaxKnownOrdering(t *testing.T) {
	cands := []Candidate{
		{Site: 3, Known: 10},
		{Site: 1, Known: 500},
		{Site: 2, Known: 10},
		{Site: 0, Known: 0},
	}
	got := sites(MaxKnown{}.Order(cands, rng.New(1)))
	want := []wire.SiteID{1, 2, 3, 0} // by known desc, ties by site id
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestByIDIgnoresKnown(t *testing.T) {
	cands := []Candidate{
		{Site: 3, Known: 10},
		{Site: 1, Known: 0},
		{Site: 2, Known: 500},
		{Site: 0, Known: 0},
	}
	got := sites(ByID{}.Order(cands, rng.New(1)))
	want := []wire.SiteID{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestRandomSelectPermutes(t *testing.T) {
	base := []Candidate{{Site: 0}, {Site: 1}, {Site: 2}, {Site: 3}, {Site: 4}}
	r := rng.New(7)
	seenDifferent := false
	for trial := 0; trial < 20 && !seenDifferent; trial++ {
		cands := append([]Candidate(nil), base...)
		got := sites(RandomSelect{}.Order(cands, r))
		if len(got) != len(base) {
			t.Fatalf("length changed: %v", got)
		}
		seen := map[wire.SiteID]bool{}
		for _, s := range got {
			seen[s] = true
		}
		if len(seen) != len(base) {
			t.Fatalf("elements changed: %v", got)
		}
		for i, s := range got {
			if s != base[i].Site {
				seenDifferent = true
			}
		}
	}
	if !seenDifferent {
		t.Fatal("20 shuffles never changed the order")
	}
}

func TestRoundRobinRotates(t *testing.T) {
	rr := &RoundRobin{}
	r := rng.New(1)
	mk := func() []Candidate { return []Candidate{{Site: 2}, {Site: 0}, {Site: 1}} }
	first := sites(rr.Order(mk(), r))
	second := sites(rr.Order(mk(), r))
	third := sites(rr.Order(mk(), r))
	fourth := sites(rr.Order(mk(), r))
	if first[0] != 0 || second[0] != 1 || third[0] != 2 || fourth[0] != 0 {
		t.Fatalf("rotation heads = %v %v %v %v", first[0], second[0], third[0], fourth[0])
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	rr := &RoundRobin{}
	if got := rr.Order(nil, rng.New(1)); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestDeciders(t *testing.T) {
	cases := []struct {
		d          Decider
		avail, req int64
		want       int64
	}{
		{GrantHalf{}, 100, 30, 50},
		{GrantHalf{}, 1, 30, 0},
		{GrantHalf{}, 0, 10, 0},
		{GrantExact{}, 100, 30, 30},
		{GrantExact{}, 20, 30, 20},
		{GrantAll{}, 100, 1, 100},
		{GrantGenerous{}, 100, 30, 50},
		{GrantGenerous{}, 100, 80, 80},
		{GrantGenerous{}, 50, 80, 50},
	}
	for _, c := range cases {
		if got := c.d.Grant(c.avail, c.req); got != c.want {
			t.Errorf("%s.Grant(%d,%d) = %d, want %d", c.d.Name(), c.avail, c.req, got, c.want)
		}
	}
	for _, d := range []Decider{GrantHalf{}, GrantExact{}, GrantAll{}, GrantGenerous{}} {
		if d.Request(42) != 42 {
			t.Errorf("%s.Request != shortage", d.Name())
		}
	}
}

func TestSODA99Bundle(t *testing.T) {
	p := SODA99()
	if p.Selector.Name() != "max-known" || p.Decider.Name() != "half" {
		t.Fatalf("SODA99 = %s/%s", p.Selector.Name(), p.Decider.Name())
	}
}

func TestViewObserveAndCandidates(t *testing.T) {
	v := NewView()
	if _, ok := v.Known(1, "k"); ok {
		t.Fatal("empty view knows something")
	}
	v.Observe(1, "k", 100)
	v.Observe(2, "k", 50)
	v.Observe(1, "k", 80) // newer observation overwrites
	if n, ok := v.Known(1, "k"); !ok || n != 80 {
		t.Fatalf("Known(1,k) = %d,%v", n, ok)
	}
	cands := v.Candidates("k", []wire.SiteID{1, 2, 3})
	if len(cands) != 3 {
		t.Fatalf("candidates = %v", cands)
	}
	byHost := map[wire.SiteID]int64{}
	for _, c := range cands {
		byHost[c.Site] = c.Known
	}
	if byHost[1] != 80 || byHost[2] != 50 || byHost[3] != 0 {
		t.Fatalf("candidates = %v", cands)
	}
}

func TestViewObserveAll(t *testing.T) {
	v := NewView()
	v.ObserveAll([]wire.AVInfo{
		{Site: 0, Key: "a", Avail: 7},
		{Site: 0, Key: "b", Avail: 9},
		{Site: 4, Key: "a", Avail: 1},
	})
	if n, _ := v.Known(0, "b"); n != 9 {
		t.Fatalf("Known(0,b) = %d", n)
	}
	if n, _ := v.Known(4, "a"); n != 1 {
		t.Fatalf("Known(4,a) = %d", n)
	}
}

func TestViewConcurrency(t *testing.T) {
	v := NewView()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			v.Observe(wire.SiteID(i%4), "k", int64(i))
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		v.Candidates("k", []wire.SiteID{0, 1, 2, 3})
	}
	<-done
}
