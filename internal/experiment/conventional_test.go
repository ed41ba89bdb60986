package experiment

import (
	"context"
	"errors"
	"testing"

	"avdb/internal/cluster"
	"avdb/internal/transport"
)

// The conventional system is the shipped stack with every key's only
// replica at the base and no AV. Each case runs one update on a fresh
// copy of the cluster RunConventional builds and checks what it cost,
// whom it was charged to, and the base's stock afterwards.
func TestConventionalShape(t *testing.T) {
	cases := []struct {
		name     string
		site     int
		key      string // "" is the first catalog key
		delta    int64
		baseDown bool
		ok       bool
		wantErr  error
		msgs     int64 // every message, all charged to site
		stock    int64
	}{
		{name: "remote update costs one correspondence", site: 1, delta: -10, ok: true, msgs: 2, stock: 90},
		{name: "update at the base sends nothing", site: 0, delta: 50, ok: true, msgs: 0, stock: 150},
		{name: "remote overdraft is refused", site: 1, delta: -500, msgs: 2, stock: 100},
		{name: "overdraft at the base is refused", site: 0, delta: -500, msgs: 0, stock: 100},
		{name: "unknown key is refused", site: 1, key: "ghost", delta: 1, msgs: 2, stock: 100},
		{name: "unreachable base fails closed", site: 1, delta: -1, baseDown: true, wantErr: transport.ErrUnreachable, stock: 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cc, err := Config{Sites: 3, Items: 2, InitialAmount: 100}.withDefaults().conventional()
			if err != nil {
				t.Fatal(err)
			}
			c, err := cluster.New(cc)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			key := tc.key
			if key == "" {
				key = cluster.KeyName(0)
			}
			if tc.baseDown {
				c.Net.Crash(0)
			}
			_, err = c.Update(context.Background(), tc.site, key, tc.delta)
			if tc.ok != (err == nil) || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
				t.Fatalf("err = %v, want ok=%v (%v)", err, tc.ok, tc.wantErr)
			}
			if got, bySite := c.Registry.TotalMessages(), c.Registry.MessagesBySite(); got != tc.msgs || bySite[tc.site] != tc.msgs {
				t.Fatalf("%d messages (by site %v), want %d, all charged to site %d", got, bySite, tc.msgs, tc.site)
			}
			if v, err := c.Read(0, cluster.KeyName(0)); err != nil || v != tc.stock {
				t.Fatalf("base stock = %d (%v), want %d", v, err, tc.stock)
			}
		})
	}
}
