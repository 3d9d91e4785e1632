package deploy

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"dupserve/internal/httpserver"
	"dupserve/internal/routing"
	"dupserve/internal/site"
)

func smallSpec() site.Spec {
	return site.Spec{
		Sports: 2, EventsPerSport: 3, Athletes: 30, Countries: 6,
		NewsStories: 5, Days: 3, EventsPerAthlete: 1, Languages: []string{"en"},
	}
}

func newDeployment(t *testing.T) *Deployment {
	t.Helper()
	cfg := NaganoConfig(smallSpec())
	// Shrink WAN delays so tests are fast but still exercise the path.
	for i := range cfg.Complexes {
		cfg.Complexes[i].ReplicationDelay = time.Millisecond
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	if err := d.Prime(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Spec: smallSpec()}); err == nil {
		t.Fatal("empty complex list accepted")
	}
	cfg := Config{Spec: smallSpec(), Complexes: []ComplexSpec{
		{Name: "a", ChainFrom: "missing"},
	}}
	if _, err := New(cfg); err == nil {
		t.Fatal("chain from unknown complex accepted")
	}
}

func TestPrimeWarmsEveryComplex(t *testing.T) {
	d := newDeployment(t)
	for _, cx := range d.Complexes() {
		agg := cx.Cluster.Caches.AggregateStats()
		if agg.Items == 0 {
			t.Fatalf("complex %s not primed", cx.Name)
		}
	}
	// Every request from every region is a hit immediately after priming.
	for _, region := range []routing.Region{routing.RegionUS, routing.RegionJapan, routing.RegionEurope} {
		obj, outcome, name, err := d.Serve(region, "/en/home/day01")
		if err != nil || outcome != httpserver.OutcomeHit {
			t.Fatalf("region %s: %v %v (complex %s)", region, outcome, err, name)
		}
		if len(obj.Value) == 0 {
			t.Fatal("empty page")
		}
	}
}

func TestGeographicServing(t *testing.T) {
	d := newDeployment(t)
	for i := 0; i < 24; i++ {
		_, _, name, err := d.Serve(routing.RegionJapan, "/en/medals")
		if err != nil {
			t.Fatal(err)
		}
		if name != "tokyo" {
			t.Fatalf("japan served by %s", name)
		}
	}
}

func TestResultPropagatesToEveryComplex(t *testing.T) {
	d := newDeployment(t)
	ev := d.MasterSite.Events[0]
	gold := ev.Participants[0]
	if _, err := d.MasterSite.RecordResult(ev, gold, ev.Participants[1], ev.Participants[2], "199.9"); err != nil {
		t.Fatal(err)
	}
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("freshness timeout")
	}
	page := "/en/sports/" + ev.Sport + "/" + ev.Key
	for _, region := range []routing.Region{routing.RegionUS, routing.RegionJapan, routing.RegionEurope, routing.RegionAsia} {
		obj, outcome, name, err := d.Serve(region, page)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != httpserver.OutcomeHit {
			t.Fatalf("region %s (complex %s): outcome %v, want hit (update-in-place)", region, name, outcome)
		}
		if !strings.Contains(string(obj.Value), gold) {
			t.Fatalf("complex %s serves stale page: %q", name, obj.Value)
		}
	}
}

func TestChainedComplexesReceiveViaSchaumburg(t *testing.T) {
	d := newDeployment(t)
	if _, err := d.MasterSite.PublishNews(0, "Chained headline", "body"); err != nil {
		t.Fatal(err)
	}
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("freshness timeout")
	}
	for _, name := range []string{"columbus", "bethesda"} {
		cx, _ := d.Complex(name)
		if cx.Replica.LSN() != d.Master.LSN() {
			t.Fatalf("%s LSN %d, master %d", name, cx.Replica.LSN(), d.Master.LSN())
		}
		// Served from the chained complex's own cache.
		c := cx.Cluster.Caches.Members()[0]
		obj, ok := c.Peek("/en/news/n000")
		if !ok || !strings.Contains(string(obj.Value), "Chained headline") {
			t.Fatalf("%s cache = %v %v", name, ok, obj)
		}
	}
}

func TestHitRateStays100UnderLiveUpdates(t *testing.T) {
	d := newDeployment(t)
	// Interleave updates and traffic; every read must hit.
	for i, ev := range d.MasterSite.Events {
		if _, err := d.MasterSite.RecordPartial(ev, ev.Participants[i%len(ev.Participants)], fmt.Sprint(i)); err != nil {
			t.Fatal(err)
		}
		if !d.WaitFresh(10 * time.Second) {
			t.Fatal("freshness timeout")
		}
		for j := 0; j < 10; j++ {
			_, outcome, _, err := d.Serve(routing.RegionUS, "/en/sports/"+ev.Sport+"/"+ev.Key)
			if err != nil || outcome != httpserver.OutcomeHit {
				t.Fatalf("update %d read %d: %v %v", i, j, outcome, err)
			}
		}
	}
	agg := d.Stats()
	if agg.Misses != 0 {
		t.Fatalf("misses = %d, want 0", agg.Misses)
	}
}

func TestComplexFailureServedElsewhere(t *testing.T) {
	d := newDeployment(t)
	d.FailComplex("tokyo")
	for i := 0; i < 24; i++ {
		_, _, name, err := d.Serve(routing.RegionJapan, "/en/medals")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if name == "tokyo" {
			t.Fatal("served by failed complex")
		}
	}
	// Recovery re-advertises and rewarms the crashed caches.
	if err := d.RecoverComplex("tokyo"); err != nil {
		t.Fatal(err)
	}
	_, outcome, name, err := d.Serve(routing.RegionJapan, "/en/medals")
	if err != nil || name != "tokyo" || outcome != httpserver.OutcomeHit {
		t.Fatalf("after recovery: %v %s %v", outcome, name, err)
	}
	// Helpers tolerate unknown names.
	d.FailComplex("atlantis")
	if err := d.RecoverComplex("atlantis"); err == nil {
		t.Fatal("recover of unknown complex should error")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	d := newDeployment(t)
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFreshnessLatencyIsSeconds(t *testing.T) {
	// The paper: "updated Web pages ... within seconds". With millisecond
	// WAN delays the whole pipeline completes well inside a second.
	d := newDeployment(t)
	ev := d.MasterSite.Events[1]
	start := time.Now()
	if _, err := d.MasterSite.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "1"); err != nil {
		t.Fatal(err)
	}
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("freshness timeout")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("freshness took %v", el)
	}
}
