package sim

import (
	"testing"

	"dupserve/internal/core"
	"dupserve/internal/routing"
	"dupserve/internal/site"
	"dupserve/internal/workload"
)

// smallConfig runs a 4-day toy games quickly.
func smallConfig(policy core.Policy) Config {
	spec := site.Spec{
		Sports: 3, EventsPerSport: 4, Athletes: 120, Countries: 8,
		NewsStories: 20, Days: 4, EventsPerAthlete: 1, Languages: []string{"en"},
	}
	return Config{
		Seed:             7,
		SiteSpec:         spec,
		TotalHits:        40_000,
		Policy:           policy,
		Frames:           1,
		NodesPerFrame:    2,
		PartialsPerEvent: 3,
		USCongestion:     1.6,
		Spikes:           []workload.Spike{{Day: 2, UTCHour: 8, Multiplier: 2.5, Name: "test-spike"}},
	}
}

func TestRunProducesAllSeries(t *testing.T) {
	res, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	if res.Days != 4 || len(res.HitsByDay) != 4 || len(res.BytesByDay) != 4 || len(res.RegenByDay) != 4 {
		t.Fatalf("series lengths wrong: %+v", res)
	}
	var total int64
	for _, h := range res.HitsByDay {
		if h <= 0 {
			t.Fatalf("day with no hits: %v", res.HitsByDay)
		}
		total += h
	}
	// Rounding and region/hour quantization lose a little volume.
	if total < 30_000 || total > 45_000 {
		t.Fatalf("total hits = %d, want ~40000", total)
	}
	for _, b := range res.BytesByDay {
		if b <= 0 {
			t.Fatal("day with no bytes")
		}
	}
	if len(res.HourlyByComplex) != 4 {
		t.Fatalf("complex series = %d", len(res.HourlyByComplex))
	}
	for _, rg := range []routing.Region{routing.RegionUS, routing.RegionJapan} {
		if len(res.ResponseByRegion[rg]) != 4 {
			t.Fatalf("response series missing for %s", rg)
		}
	}
	if res.PagesTotal == 0 || res.CacheItemsSingle == 0 {
		t.Fatal("cache accounting empty")
	}
}

func TestUpdateInPlaceHitRateNear100(t *testing.T) {
	res, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "cache hit rates of close to 100%".
	if res.HitRate < 0.99 {
		t.Fatalf("hit rate = %.4f, want >= 0.99", res.HitRate)
	}
	// The paper never ran a replacement algorithm: caches are unbounded,
	// so every page is resident at peak.
	if res.CacheItemsSingle < res.PagesTotal {
		t.Fatalf("cache holds %d items, want every one of %d pages resident", res.CacheItemsSingle, res.PagesTotal)
	}
}

func TestPolicyOrderingMatchesPaper(t *testing.T) {
	update, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	inval, err := Run(smallConfig(core.PolicyInvalidate))
	if err != nil {
		t.Fatal(err)
	}
	conserv, err := Run(smallConfig(core.PolicyConservative))
	if err != nil {
		t.Fatal(err)
	}
	if !(update.HitRate > inval.HitRate && inval.HitRate > conserv.HitRate) {
		t.Fatalf("hit rates: update=%.4f invalidate=%.4f conservative=%.4f, want strict ordering",
			update.HitRate, inval.HitRate, conserv.HitRate)
	}
	// The 1996-vs-1998 contrast: conservative clearly below, update ~100%.
	if conserv.HitRate > 0.97 {
		t.Fatalf("conservative hit rate = %.4f, expected visibly degraded", conserv.HitRate)
	}
}

func TestDailyShapePeakDay(t *testing.T) {
	cfg := smallConfig(core.PolicyUpdateInPlace)
	cfg.SiteSpec.Days = 8
	cfg.TotalHits = 60_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 20 shape: day 7 is the maximum of the first 8 days.
	peak, peakDay := int64(0), 0
	for d, h := range res.HitsByDay {
		if h > peak {
			peak, peakDay = h, d+1
		}
	}
	if peakDay != 7 {
		t.Fatalf("peak day = %d, want 7 (%v)", peakDay, res.HitsByDay)
	}
}

func TestGeoBreakdownShape(t *testing.T) {
	res, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	us := res.GeoBreakdown[routing.RegionUS]
	jp := res.GeoBreakdown[routing.RegionJapan]
	eu := res.GeoBreakdown[routing.RegionEurope]
	if !(us > jp && jp > eu) {
		t.Fatalf("geo breakdown out of shape: %v", res.GeoBreakdown)
	}
	// Japanese traffic lands on Tokyo.
	if res.ComplexBreakdown["tokyo"] == 0 {
		t.Fatalf("tokyo served nothing: %v", res.ComplexBreakdown)
	}
}

func TestFailuresStillFullyAvailable(t *testing.T) {
	cfg := smallConfig(core.PolicyUpdateInPlace)
	cfg.Failures = []Failure{
		{Day: 1, Hour: 5, Complex: "columbus", Kind: FailNode, DurationHours: 2},
		{Day: 2, Hour: 3, Complex: "schaumburg", Kind: FailFrame, DurationHours: 2},
		{Day: 3, Hour: 6, Complex: "bethesda", Kind: FailComplex, DurationHours: 3},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Elegant degradation: the site never went down and no request was
	// rejected despite node, frame and complex failures.
	if res.Availability != 1 {
		t.Fatalf("availability = %.4f, want 1.0", res.Availability)
	}
	if res.Rejected != 0 {
		t.Fatalf("rejected = %d, want 0", res.Rejected)
	}
	if res.Outages != 0 {
		t.Fatalf("outages = %d", res.Outages)
	}
}

func TestUnknownFailureComplexErrors(t *testing.T) {
	cfg := smallConfig(core.PolicyUpdateInPlace)
	cfg.Failures = []Failure{{Day: 1, Hour: 0, Complex: "atlantis", Kind: FailNode, DurationHours: 1}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error for unknown complex")
	}
}

func TestUSCongestionBlipsResponse(t *testing.T) {
	cfg := smallConfig(core.PolicyUpdateInPlace)
	cfg.SiteSpec.Days = 10
	cfg.TotalHits = 50_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	us := res.ResponseByRegion[routing.RegionUS]
	jp := res.ResponseByRegion[routing.RegionJapan]
	// Days 7-9 must be visibly worse for the US than its neighbours...
	if !(us[7] > us[5]*1.2) {
		t.Fatalf("US day 8 = %.2fs vs day 6 = %.2fs, want a clear blip", us[7], us[5])
	}
	// ...while Japan stays flat through the same days (external cause).
	if jp[7] > jp[5]*1.1 {
		t.Fatalf("Japan blipped too: day 8 = %.2fs vs day 6 = %.2fs", jp[7], jp[5])
	}
}

func TestFreshnessWithinPaperBound(t *testing.T) {
	res, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	if res.FreshnessMaxSec <= 0 {
		t.Fatal("no freshness samples")
	}
	// "reflecting current events within a maximum of sixty seconds".
	if res.FreshnessMaxSec > 60 {
		t.Fatalf("freshness max = %.1fs, want <= 60", res.FreshnessMaxSec)
	}
}

func TestRegensHappen(t *testing.T) {
	res, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRegens == 0 {
		t.Fatal("no regenerations")
	}
	var sum int64
	for _, x := range res.RegenByDay {
		sum += x
	}
	if sum != res.TotalRegens {
		t.Fatalf("RegenByDay sum %d != total %d", sum, res.TotalRegens)
	}
}

func TestSpikeProducesPeakMinute(t *testing.T) {
	res, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakMinute.Hits == 0 {
		t.Fatal("no peak minute recorded")
	}
	if res.PeakMinute.Day != 2 || res.PeakMinute.Hour != 8 {
		t.Fatalf("peak minute at day %d hour %d, want spike hour (day 2, hour 8)",
			res.PeakMinute.Day, res.PeakMinute.Hour)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	for d := range a.HitsByDay {
		if a.HitsByDay[d] != b.HitsByDay[d] || a.BytesByDay[d] != b.BytesByDay[d] {
			t.Fatalf("runs diverged on day %d", d+1)
		}
	}
	if a.HitRate != b.HitRate || a.PeakMinute != b.PeakMinute {
		t.Fatal("summary stats diverged")
	}
}

func TestHybridPolicyHitRateBetweenUpdateAndInvalidate(t *testing.T) {
	update, err := Run(smallConfig(core.PolicyUpdateInPlace))
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Run(smallConfig(core.PolicyHybrid))
	if err != nil {
		t.Fatal(err)
	}
	inval, err := Run(smallConfig(core.PolicyInvalidate))
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid misses only on cold pages: at or below pure update-in-place,
	// at or above pure invalidation, and much less regeneration work than
	// updating everything.
	if hybrid.HitRate > update.HitRate+1e-9 || hybrid.HitRate < inval.HitRate-1e-9 {
		t.Fatalf("hybrid %.4f not between update %.4f and invalidate %.4f",
			hybrid.HitRate, update.HitRate, inval.HitRate)
	}
	if hybrid.TotalRegens >= update.TotalRegens {
		t.Fatalf("hybrid regens %d not below update-all %d", hybrid.TotalRegens, update.TotalRegens)
	}
}
