// E-money: the domain of the paper's reference [1] (Kawazoe, Shibuya,
// Tokuyama, SODA '99), whose money-distribution policy the accelerator
// adopts. A bank's branches share a float of electronic money; customer
// withdrawals must be instant (Delay Updates funded by each branch's
// allowable volume), deposits mint local capacity, and the float
// migrates between branches on demand. A donor branch grants the larger
// of the request and half its allowance (strategy.GrantGenerous), so a
// short branch is always covered when the donor can afford it.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"avdb/internal/cluster"
	"avdb/internal/metrics"
	"avdb/internal/rng"
	"avdb/internal/strategy"
)

func main() {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	const branches = 5
	const float = 100000 // shared e-money float

	c, err := cluster.New(cluster.Config{
		Sites:         branches,
		Items:         1, // a single datum: the bank's e-money float
		InitialAmount: float,
		Registry:      reg,
		Seed:          9,
		CallTimeout:   2 * time.Second,
		Policy:        strategy.Policy{Selector: strategy.MaxKnown{}, Decider: strategy.GrantGenerous{}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	money := c.RegularKeys[0]

	// A day of branch traffic: branch 0 (head office) takes most of the
	// deposits; the others serve withdrawals of varying intensity.
	r := rng.New(77)
	withdrawals, deposits, refused := 0, 0, 0
	for i := 0; i < 4000; i++ {
		branch := r.Intn(branches)
		if branch == 0 || r.Bool(0.25) {
			if _, err := c.Update(ctx, branch, money, r.Range(10, 400)); err != nil {
				log.Fatal(err)
			}
			deposits++
			continue
		}
		// Hot branches withdraw much harder than cold ones.
		max := int64(80)
		if branch == 1 {
			max = 400
		}
		if _, err := c.Update(ctx, branch, money, -r.Range(10, max)); err != nil {
			refused++ // the whole float is exhausted: correctly refused
		} else {
			withdrawals++
		}
	}

	fmt.Printf("traffic: %d withdrawals, %d deposits, %d refused (float exhausted)\n",
		withdrawals, deposits, refused)
	fmt.Printf("correspondences: %d (%.3f per operation)\n",
		reg.TotalCorrespondences(), float64(reg.TotalCorrespondences())/4000)

	var localSum, transferSum int64
	for _, s := range c.Sites {
		st := s.Accelerator().Stats()
		localSum += st.DelayLocal.Load()
		transferSum += st.DelayTransfer.Load()
	}
	fmt.Printf("instant (local) operations: %.1f%%\n",
		100*float64(localSum)/float64(localSum+transferSum))

	if err := c.FlushAll(ctx); err != nil {
		log.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		log.Fatalf("reconciliation FAILED: %v", err)
	}
	v, _ := c.Read(0, money)
	fmt.Printf("end-of-day reconciliation: every branch agrees the float is %d\n", v)
	fmt.Println("and the sum of branch allowances equals it exactly — no money")
	fmt.Println("was created or destroyed by the autonomous branch updates.")

	fmt.Println("\nfinal allowance distribution (who holds the float):")
	for i, s := range c.Sites {
		fmt.Printf("  branch %d: %6d\n", i, s.AV().Avail(money))
	}
}
