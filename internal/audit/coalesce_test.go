package audit_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dupserve/internal/deploy"
	"dupserve/internal/routing"
	"dupserve/internal/site"
)

// TestCoalescedBurstLeavesNoIncoherentPages proves trigger coalescing is
// lossless: when a burst of commits piles up on the CDC feed while a batch
// propagates and the monitor absorbs the backlog into fewer propagations,
// every page still converges
// to the state the data dictates. The audit sweep is the oracle — after
// the burst settles, a probe of the full page set must come back entirely
// coherent with zero incoherent pages.
func TestCoalescedBurstLeavesNoIncoherentPages(t *testing.T) {
	spec := site.Spec{
		Sports: 1, EventsPerSport: 2, Athletes: 8, Countries: 3,
		NewsStories: 1, Days: 1, EventsPerAthlete: 1, Languages: []string{"en"},
	}
	d, err := deploy.New(deploy.Config{
		Spec: spec,
		Complexes: []deploy.ComplexSpec{{
			Name: "tokyo", Frames: 1, NodesPerFrame: 2,
			Distance: map[routing.Region]int{
				routing.RegionJapan: 1, routing.RegionUS: 2, routing.RegionEurope: 3,
			},
		}},
		SLO: time.Minute,
	}, deploy.WithAudit())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Shutdown(context.Background()) }()
	if err := d.Prime(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	cx := d.Complexes()[0]
	events := d.MasterSite.Events

	// Commit bursts until the monitor reports coalescing. A batch absorbs
	// whatever reached the feed while the previous one propagated, so each
	// round fires its commits back-to-back.
	var coalesced int64
	for round := 0; round < 50 && coalesced == 0; round++ {
		for i, ev := range events {
			for j := 0; j < 24; j++ {
				if _, err := d.MasterSite.RecordPartial(ev,
					ev.Participants[(i+j)%len(ev.Participants)],
					fmt.Sprintf("burst.%d.%d.%d", round, i, j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !d.WaitFresh(10 * time.Second) {
			t.Fatal("plant did not converge after burst")
		}
		coalesced = cx.Monitor().Stats().Coalesced
	}
	if coalesced == 0 {
		t.Fatal("burst never coalesced; backlog absorption not exercised")
	}

	// Quiescent probe: serve every page once and audit. Coalescing must
	// not have skipped any refresh.
	// A sweep drains the burst's samples, so the next one sees only the probe.
	if _, err := cx.Auditor.Sweep(); err != nil {
		t.Fatal(err)
	}
	pages := cx.Site.Pages()
	for _, p := range pages {
		if _, _, err := cx.Cluster.Serve(p); err != nil {
			t.Fatalf("probe %s: %v", p, err)
		}
	}
	rep, err := cx.Auditor.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != len(pages) {
		t.Fatalf("probed %d pages, sweep saw %d samples", len(pages), rep.Samples)
	}
	if rep.Incoherent != 0 || len(rep.IncoherentPages) != 0 {
		t.Fatalf("coalesced burst left incoherent pages: %v", rep.IncoherentPages)
	}
	if rep.Coherent != rep.Samples {
		t.Fatalf("coherent=%d of %d samples after convergence: %+v",
			rep.Coherent, rep.Samples, rep)
	}
	if len(rep.MissingEdges) != 0 || len(rep.SuperfluousEdges) != 0 {
		t.Fatalf("completeness diff: missing=%v superfluous=%v",
			rep.MissingEdges, rep.SuperfluousEdges)
	}
}
