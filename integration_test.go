// End-to-end integration: a compressed "day in the life" of the Nagano
// site, run against the real asynchronous deployment (master database,
// chained replication, per-complex trigger monitors, MSIRP routing) with
// workload-model traffic and access-log analysis — every subsystem of the
// repository touching every other.
package dupserve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/deploy"
	"dupserve/internal/httpserver"
	"dupserve/internal/routing"
	"dupserve/internal/site"
	"dupserve/internal/weblog"
	"dupserve/internal/workload"
)

func TestIntegrationDayInTheLife(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	spec := site.Spec{
		Sports: 3, EventsPerSport: 4, Athletes: 90, Countries: 10,
		NewsStories: 20, Days: 3, EventsPerAthlete: 1,
		Languages:   []string{"en", "ja"},
		Syndication: []string{"cbs"},
	}
	cfg := deploy.NaganoConfig(spec)
	for i := range cfg.Complexes {
		cfg.Complexes[i].ReplicationDelay = time.Millisecond
	}
	d, err := deploy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	if err := d.Prime(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	model := workload.New(workload.Config{Seed: 42, TotalHits: 5000}, d.MasterSite)
	rng := rand.New(rand.NewSource(42))
	var logBuf bytes.Buffer
	access := weblog.NewWriter(&logBuf)
	base := time.Date(1998, 2, 8, 0, 0, 0, 0, time.UTC)
	reqN := 0
	access.SetClock(func() time.Time { reqN++; return base.Add(time.Duration(reqN) * time.Second) })

	statics := d.MasterSite.Statics()
	served, errors := 0, 0
	// Interleave: a burst of traffic, then a result, repeatedly.
	events := d.MasterSite.Events
	for round := 0; round < len(events); round++ {
		for i := 0; i < 120; i++ {
			region := model.SampleRegion(rng)
			path := model.SamplePage(rng, 1, region)
			obj, outcome, _, err := d.Serve(region, path)
			if err != nil {
				errors++
				continue
			}
			served++
			status := 200
			if outcome == httpserver.OutcomeNotFound {
				status = 404
			}
			size := 0
			if obj != nil {
				size = len(obj.Value)
			}
			client := fmt.Sprintf("10.0.%d.%d", i%4, i%25)
			if err := access.Log(client, path, status, size); err != nil {
				t.Fatal(err)
			}
			// Dynamic pages must always hit; statics are statics.
			if _, isStatic := statics[path]; !isStatic && outcome != httpserver.OutcomeHit {
				t.Fatalf("round %d: %s from %s was a %v, want hit", round, path, region, outcome)
			}
		}
		ev := events[round]
		if _, err := d.MasterSite.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2],
			fmt.Sprintf("%d.0", 200+round)); err != nil {
			t.Fatal(err)
		}
		if !d.WaitFresh(30 * time.Second) {
			t.Fatal("freshness timeout")
		}
	}
	if errors > 0 {
		t.Fatalf("%d routing errors", errors)
	}

	// Global cache behaviour: zero misses across all complexes, all nodes.
	agg := d.Stats()
	if agg.Misses != 0 {
		t.Fatalf("global misses = %d over %d served", agg.Misses, served)
	}

	// Every event page reflects its final result at every complex.
	for _, ev := range events {
		page := "/en/sports/" + ev.Sport + "/" + ev.Key
		for _, cx := range d.Complexes() {
			c := cx.Cluster.Caches.Members()[0]
			obj, ok := c.Peek(cache.Key(page))
			if !ok {
				t.Fatalf("%s missing %s", cx.Name, page)
			}
			if !strings.Contains(string(obj.Value), ev.Participants[0]) {
				t.Fatalf("%s has stale %s", cx.Name, page)
			}
		}
	}

	// The syndication feed is fresh JSON everywhere.
	obj, outcome, _, err := d.Serve(routing.RegionUS, "/feed/cbs/"+events[0].Sport)
	if err != nil || outcome != httpserver.OutcomeHit {
		t.Fatalf("feed: %v %v", outcome, err)
	}
	if !bytes.Contains(obj.Value, []byte(events[0].Participants[0])) {
		t.Fatalf("feed stale: %s", obj.Value)
	}

	// Log analysis closes the loop: entries recorded for every request.
	if err := access.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := weblog.Analyze(&logBuf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != served {
		t.Fatalf("log entries = %d, served = %d", rep.Entries, served)
	}
	if len(rep.TopPages) == 0 || rep.Clients == 0 {
		t.Fatalf("report = %+v", rep)
	}
}
