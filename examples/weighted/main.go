// Weighted: edge weights and the staleness threshold (section 2 of the
// paper: "it is often possible to save considerable CPU cycles by allowing
// pages to remain in the cache which are only slightly obsolete").
//
// A stats page depends strongly (weight 5) on final results and weakly
// (weight 1) on a live ticker. With a threshold of 5, ticker updates
// accumulate staleness without triggering regeneration until five of them
// have landed — while a final result regenerates the page immediately.
//
//	go run ./examples/weighted
package main

import (
	"fmt"
	"log"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/odg"
)

func main() {
	pages := cache.New("pages")
	graph := odg.New()

	renders := 0
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		renders++
		body := fmt.Sprintf("stats page (render #%d, as of update %d)", renders, version)
		return &cache.Object{Key: key, Value: []byte(body), Version: version}, nil
	}
	engine := core.NewEngine(graph, pages,
		core.WithGenerator(gen),
		core.WithStalenessThreshold(5))

	graph.AddNode("/stats", odg.KindObject)
	must(graph.AddWeightedEdge("db:ticker", "/stats", 1)) // minor dependence
	must(graph.AddWeightedEdge("db:final", "/stats", 5))  // major dependence
	pages.Put(&cache.Object{Key: "/stats", Value: []byte("initial"), Version: 0})

	fmt.Println("threshold = 5; ticker edge weight = 1; final-result edge weight = 5")
	fmt.Println()
	version := int64(0)
	for i := 1; i <= 7; i++ {
		version++
		res := engine.OnChange(version, "db:ticker")
		obj, _ := pages.Peek("/stats")
		fmt.Printf("ticker update %d: updated=%d deferred=%d (%d deferred so far)  -> %q\n",
			i, res.Updated, res.Deferred, engine.Stats().Deferred, obj.Value)
	}

	fmt.Println()
	version++
	res := engine.OnChange(version, "db:final")
	obj, _ := pages.Peek("/stats")
	fmt.Printf("final result:    updated=%d (weight 5 crosses the threshold at once) -> %q\n",
		res.Updated, obj.Value)

	fmt.Printf("\ntotal renders: %d for 8 updates — the threshold saved %d regenerations\n",
		renders, 8-renders)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
