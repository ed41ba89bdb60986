package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avdb/internal/readplane"
)

// A ReadPlane cluster serves reads from each site's engine: committing
// sites satisfy their own tokens immediately, and after replication
// every site's stock read agrees with its replica's value.
func TestReadPlaneTokensAndConvergence(t *testing.T) {
	c := newCluster(t, Config{ReadPlane: true, NonRegularFraction: 0.25})
	key := c.RegularKeys[0]

	res, err := c.Update(bg(), 1, key, -30)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 {
		t.Fatal("commit minted no LSN")
	}
	tok := c.Sites[1].Token(res)
	ctx, cancel := context.WithTimeout(bg(), 5*time.Second)
	defer cancel()
	if err := c.Sites[1].ReadPlane().WaitFor(ctx, tok); err != nil {
		t.Fatalf("RYW at the committing site: %v", err)
	}
	if v, ok := stockOf(t, c.Sites[1].ReadPlane()).Amount(key); !ok || v != 870 {
		t.Fatalf("stock view = %d %v, want 870", v, ok)
	}

	// An Immediate-Update commit mints a usable token too.
	nrKey := c.NonRegularKeys[0]
	res, err = c.Update(bg(), 2, nrKey, -5)
	if err != nil {
		t.Fatal(err)
	}
	tok = c.Sites[2].Token(res)
	if err := c.Sites[2].ReadPlane().WaitFor(ctx, tok); err != nil {
		t.Fatalf("RYW after immediate update: %v", err)
	}

	// After replication settles, every site reads the replicated value.
	if err := c.FlushAll(bg()); err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Sites {
		want, err := s.Read(key)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := stockOf(t, s.ReadPlane()).Amount(key); !ok || v != want || v != 870 {
			t.Fatalf("site %d stock view = %d %v, engine = %d, want 870", i, v, ok, want)
		}
	}

	// A failed update mints no token: the zero token satisfies
	// trivially and demands nothing of the model.
	failRes, err := c.Update(bg(), 1, key, -10_000_000)
	if err == nil {
		t.Fatal("impossible decrement succeeded")
	}
	zero := c.Sites[1].Token(failRes)
	if !zero.IsZero() {
		t.Fatalf("failed update minted token %v", zero)
	}
	if err := c.Sites[1].ReadPlane().WaitFor(ctx, zero); err != nil {
		t.Fatalf("zero token: %v", err)
	}
}

// A routed update's reply carries the applying site's {site, lsn}, so
// the origin mints a token that gates the APPLYING site's read plane —
// the site whose engine actually holds the write. The token must open
// that site's /read/stock and be rejected as foreign everywhere else.
func TestRoutedUpdateTokenGatesApplyingSiteStock(t *testing.T) {
	c, err := New(Config{
		Sites:         6,
		Items:         40,
		InitialAmount: 60,
		Map:           shardedMap(t, 6, 16, 2),
		Seed:          7,
		ReadPlane:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Pick a key and an origin outside its replica set: the update must
	// forward.
	key, origin := "", -1
	for i := 0; i < c.Cfg.Items && origin < 0; i++ {
		k := KeyName(i)
		hosts := map[int]bool{}
		for _, h := range c.HostSitesFor(k) {
			hosts[h] = true
		}
		for s := 0; s < c.Cfg.Sites; s++ {
			if !hosts[s] {
				key, origin = k, s
				break
			}
		}
	}
	if origin < 0 {
		t.Fatal("no non-replica origin found")
	}

	res, err := c.Update(bg(), origin, key, -3)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 {
		t.Fatal("routed update minted no LSN: the RYW token gap is back")
	}
	if int(res.Site) == origin {
		t.Fatalf("update from non-replica origin %d reported itself as applier", origin)
	}
	tok := c.Sites[origin].Token(res)
	if tok.IsZero() || tok.Site != res.Site {
		t.Fatalf("token = %v, want one minted for applying site %d", tok, res.Site)
	}

	// The token opens the applying site's /read/stock, which serves the
	// write.
	srv := httptest.NewServer(c.Sites[int(res.Site)].ReadPlane().HTTPHandler())
	defer srv.Close()
	url := fmt.Sprintf("%s/read/stock?key=%s&token=%s&wait_ms=5000", srv.URL, key, tok)
	resp, err := http.Get(url) //nolint:noctx // test client
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gated stock read: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if !strings.Contains(string(body), `"amount": 57`) {
		t.Fatalf("gated stock read missing the routed write:\n%s", body)
	}

	// Presented anywhere else the token is foreign, exactly because it
	// names the applying site.
	ctx, cancel := context.WithTimeout(bg(), time.Second)
	defer cancel()
	if err := c.Sites[origin].ReadPlane().WaitFor(ctx, tok); !errors.Is(err, readplane.ErrWrongSite) {
		t.Fatalf("foreign token at origin = %v, want ErrWrongSite", err)
	}
}

// stockOf is a catalog read that must succeed.
func stockOf(t *testing.T, p *readplane.Plane) *readplane.StockSnapshot {
	t.Helper()
	s, err := p.Stock()
	if err != nil {
		t.Fatal(err)
	}
	return s
}
