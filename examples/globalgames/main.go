// Globalgames: the full four-complex production topology from figures 5
// and 6 — master database, chained WAN replication (Nagano -> Tokyo and
// Schaumburg; Schaumburg -> Columbus and Bethesda), a trigger monitor and
// DUP engine per complex, and MSIRP routing — running live in one process.
//
// A result is recorded at the master; we watch it become visible at every
// complex within the freshness budget, then serve clients from three
// continents and confirm each lands on its nearest complex with a cache
// hit.
//
//	go run ./examples/globalgames
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dupserve/internal/deploy"
	"dupserve/internal/routing"
	"dupserve/internal/site"
)

func main() {
	spec := site.DefaultSpec()
	spec.Languages = []string{"en", "ja"}
	cfg := deploy.NaganoConfig(spec)

	fmt.Println("assembling four complexes with chained replication...")
	d, err := deploy.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if err := d.Start(ctx); err != nil {
		log.Fatal(err)
	}
	defer d.Shutdown(ctx)
	if err := d.Prime(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primed: %d pages in every serving cache of every complex\n\n", len(d.MasterSite.Pages()))

	// A result arrives at the master in Nagano.
	ev := d.MasterSite.Events[0]
	gold := ev.Participants[0]
	start := time.Now()
	if _, err := d.MasterSite.RecordResult(ev, gold, ev.Participants[1], ev.Participants[2], "251.6"); err != nil {
		log.Fatal(err)
	}
	if !d.WaitFresh(30 * time.Second) {
		log.Fatal("freshness timeout")
	}
	fmt.Printf("result %s (gold %s) visible at all four complexes in %v\n",
		ev.Key, gold, time.Since(start).Round(time.Millisecond))
	for _, cx := range d.Complexes() {
		fmt.Printf("  %-12s replica LSN %d, propagated LSN %d, pages updated %d\n",
			cx.Name, cx.Replica.LSN(), cx.Monitor().LastLSN(), cx.Monitor().Stats().PagesUpdated)
	}

	// Clients around the world read the event page.
	fmt.Println("\nclients:")
	page := "/en/sports/" + ev.Sport + "/" + ev.Key
	for _, region := range []routing.Region{routing.RegionJapan, routing.RegionUS, routing.RegionEurope} {
		obj, outcome, name, err := d.Serve(region, page)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s -> %-12s [%s] v%d (%d bytes)\n", region, name, outcome, obj.Version, len(obj.Value))
	}

	var hits, misses int64
	for _, cx := range d.Complexes() {
		st := cx.Cluster.Caches.AggregateStats()
		hits += st.Hits
		misses += st.Misses
	}
	fmt.Printf("\nglobal cache: %d hits, %d misses across all serving nodes\n", hits, misses)
}
