// Failover: elegant degradation through the full chain — serving node,
// SP2 frame, Network Dispatcher pool, and complex-level MSIRP rerouting.
//
// Two complexes serve behind a router. We kill a node, then a frame, then
// an entire complex, sending traffic continuously; every request keeps
// succeeding, and the output shows where it was served from at each stage.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"dupserve/internal/cache"
	"dupserve/internal/cluster"
	"dupserve/internal/core"
	"dupserve/internal/routing"
)

func main() {
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return &cache.Object{Key: key, Value: []byte("page " + string(key)), Version: version}, nil
	}
	_ = core.PolicyUpdateInPlace // the serving path here regenerates on miss

	build := func(name string) *cluster.Complex {
		return cluster.NewComplex(cluster.Config{
			Name: name, Frames: 2, NodesPerFrame: 2,
			Generator: gen, Version: func() int64 { return 1 },
		})
	}
	east := build("east")
	west := build("west")

	router := routing.NewRouter(routing.NumAddresses)
	router.AddComplex("east", east, map[routing.Region]int{"clients": 10})
	router.AddComplex("west", west, map[routing.Region]int{"clients": 30})
	if err := router.AdvertiseSpread([]string{"east", "west"}, 10, 20); err != nil {
		log.Fatal(err)
	}

	requests, failed := 0, 0
	drive := func(label string, n int) {
		byComplex := map[string]int{}
		failures := 0
		for i := 0; i < n; i++ {
			_, _, complexName, err := router.Request("clients", "/home")
			if err != nil {
				failures++
				continue
			}
			byComplex[complexName]++
		}
		requests += n
		failed += failures
		fmt.Printf("%-28s east=%3d west=%3d failures=%d  (east healthy nodes: %d)\n",
			label, byComplex["east"], byComplex["west"], failures, east.Dispatcher.HealthyCount())
	}

	drive("all healthy", 100)

	// Stage 1: one node dies. The dispatcher's advisor pulls it on the
	// first failed request; the other three nodes absorb the load.
	east.Frames[0].Nodes[0].Fail()
	drive("east loses one node", 100)

	// Stage 2: a whole frame goes down.
	east.FailFrame(1)
	drive("east loses a frame too", 100)

	// Stage 3: the complex is gone. MSIRP reroutes everything to west.
	east.FailAll()
	drive("east complex down", 100)

	// Recovery: nodes come back (cold caches), advisors restore them, and
	// the router re-enables the complex.
	east.RecoverAll()
	router.SetComplexUp("east", true)
	drive("east recovered", 100)

	fmt.Printf("\nrouter: %d requests, %d failed (paper: zero downtime)\n", requests, failed)
	ds := east.Dispatcher.Stats()
	fmt.Printf("east dispatcher: %d forwarded, %d failovers\n", ds.Forwarded, ds.Failovers)
}
