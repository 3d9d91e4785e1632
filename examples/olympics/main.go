// Olympics: the end-to-end mini site — database, taxonomy, fragment
// renderers, DUP engine, trigger monitor, and a serving node — with live
// result updates flowing through while we read pages from the cache.
//
//	go run ./examples/olympics
package main

import (
	"context"
	"fmt"
	"log"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/httpserver"
	"dupserve/internal/odg"
	"dupserve/internal/site"
	"dupserve/internal/trigger"
)

func main() {
	master := db.New("nagano")
	graph := odg.New()
	serving := cache.New("up0")

	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	engine := core.NewEngine(graph, serving, core.WithGenerator(gen))

	var err error
	st, err = site.Build(site.DefaultSpec(), master, engine)
	if err != nil {
		log.Fatal(err)
	}
	engine.SetAssembler(st.Engine)
	fmt.Printf("built site: %d dynamic pages, %d events, %d athletes\n",
		len(st.Pages()), len(st.Events), len(st.AthleteIDs))

	// Prime the cache and start the trigger monitor.
	if err := st.PrerenderAll(master.LSN(), func(o *cache.Object) { serving.Put(o) }); err != nil {
		log.Fatal(err)
	}
	serving.ResetCounters()
	mon := trigger.New(trigger.Config{DB: master, Engine: engine},
		trigger.WithIndexer(st.Indexer))
	if err := mon.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer mon.Shutdown(context.Background())

	// One serving node in front of the cache.
	node := httpserver.New("up0", serving, gen, master.LSN)

	ev := st.Events[0]
	eventPage := "/en/sports/" + ev.Sport + "/" + ev.Key
	athletePage := "/en/athletes/" + ev.Participants[0]

	fetch := func(path string) {
		obj, outcome, err := node.Serve(path)
		if err != nil {
			log.Fatal(err)
		}
		line := string(obj.Value)
		if len(line) > 96 {
			line = line[:96] + "..."
		}
		fmt.Printf("  GET %-34s [%s v%d] %s\n", path, outcome, obj.Version, line)
	}

	fmt.Println("\nbefore the event:")
	fetch(eventPage)
	fetch(athletePage)

	// The event runs: two intermediate standings, then the final.
	if _, err := st.RecordPartial(ev, ev.Participants[3], "118.2"); err != nil {
		log.Fatal(err)
	}
	mon.Flush()
	fmt.Println("\nmid-event (leader on the board):")
	fetch(eventPage)

	gold, silver, bronze := ev.Participants[0], ev.Participants[4], ev.Participants[2]
	if _, err := st.RecordResult(ev, gold, silver, bronze, "251.6"); err != nil {
		log.Fatal(err)
	}
	if _, err := st.PublishNews(0, "Gold decided in "+ev.Sport, "A famous victory."); err != nil {
		log.Fatal(err)
	}
	mon.Flush()

	fmt.Println("\nafter the final result and a news story:")
	fetch(eventPage)
	fetch(athletePage)
	fetch("/en/medals")
	fetch(fmt.Sprintf("/en/home/day%02d", st.CurrentDay()))
	fetch("/en/news/n000")

	stats := serving.Stats()
	fmt.Printf("\nevery request above was a cache hit: %d hits, %d misses\n", stats.Hits, stats.Misses)
	ms := mon.Stats()
	fmt.Printf("trigger monitor: %d transactions propagated, %d pages updated in place\n",
		ms.Transactions, ms.PagesUpdated)
}
