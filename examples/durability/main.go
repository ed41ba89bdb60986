// Durability: a site's database, allowable volume, and replication
// state all survive a restart. The cluster sells stock, "crashes"
// (closes), reopens from disk, and carries on — without minting AV,
// resetting stock, or re-sending already-delivered deltas.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"avdb"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "avdb-durability")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := avdb.Config{Sites: 2, Dir: dir, NoSync: true}

	// --- first life ---
	c, err := avdb.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.AddProduct(avdb.Product{Key: "widget", Amount: 1000, Class: avdb.Regular}); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Update(ctx, 1, "widget", -60); err != nil {
			log.Fatal(err)
		}
	}
	v, _ := c.Read(1, "widget")
	av1, _ := c.AV(1, "widget")
	fmt.Printf("before crash: site1 stock=%d AV=%d (sold 300 of its 500 allocation)\n", v, av1)
	if err := c.Close(); err != nil { // the "crash"
		log.Fatal(err)
	}

	// --- second life ---
	c2, err := avdb.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer c2.Close()
	// Re-registering the catalog is idempotent on a durable cluster.
	if err := c2.AddProduct(avdb.Product{Key: "widget", Amount: 1000, Class: avdb.Regular}); err != nil {
		log.Fatal(err)
	}
	v, _ = c2.Read(1, "widget")
	av2, _ := c2.AV(1, "widget")
	fmt.Printf("after restart: site1 stock=%d AV=%d (nothing lost, nothing minted)\n", v, av2)

	// The deltas committed before the crash still propagate.
	if err := c2.Sync(ctx); err != nil {
		log.Fatal(err)
	}
	v0, _ := c2.Read(0, "widget")
	fmt.Printf("after sync:   site0 sees stock=%d\n", v0)

	// And business continues within the recovered AV.
	if _, err := c2.Update(ctx, 1, "widget", -200); err != nil {
		log.Fatal(err)
	}
	fmt.Println("post-restart sale of 200 completed from recovered AV")
	// The next sale exceeds site 1's recovered allocation, so the
	// accelerator transfers AV from site 0 — the recovered table is a
	// live participant, not a read-only snapshot.
	res, err := c2.Update(ctx, 1, "widget", -10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sale beyond the local allocation used path=%s (AV transferred: %d)\n",
		res.Path, res.Transferred)
}
