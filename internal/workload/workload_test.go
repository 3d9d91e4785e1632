package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/odg"
	"dupserve/internal/routing"
	"dupserve/internal/site"

	"dupserve/internal/cache"
)

func testModel(t *testing.T) (*Model, *site.Site) {
	t.Helper()
	d := db.New("m")
	g := odg.New()
	c := cache.New("c")
	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	e := core.NewEngine(g, c, core.WithGenerator(gen))
	var err error
	st, err = site.Build(site.DefaultSpec(), d, e)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Seed: 7, TotalHits: 100_000, Spikes: PaperSpikes()}, st)
	return m, st
}

func TestDailyProfileShape(t *testing.T) {
	m, _ := testModel(t)
	var total int64
	peakDay, peak := 0, int64(0)
	for d := 1; d <= m.days; d++ {
		h := m.HitsForDay(d)
		total += h
		if h > peak {
			peak, peakDay = h, d
		}
	}
	if peakDay != 7 {
		t.Fatalf("peak day = %d, want 7 (figure 20)", peakDay)
	}
	if math.Abs(float64(total)-100_000) > 20 {
		t.Fatalf("total = %d, want ~100000", total)
	}
	// Second swell around day 14 (figure skating): day 14 beats days 13
	// and 15.
	if m.HitsForDay(14) <= m.HitsForDay(13) || m.HitsForDay(14) <= m.HitsForDay(15) {
		t.Fatal("day 14 is not a local peak")
	}
	if m.HitsForDay(0) != 0 || m.HitsForDay(99) != 0 {
		t.Fatal("out-of-range days should be 0")
	}
}

func TestRegionSharesSumToOne(t *testing.T) {
	m, _ := testModel(t)
	var total float64
	for _, r := range m.Regions() {
		total += m.RegionShare(r)
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("region shares sum to %v", total)
	}
	if m.RegionShare(routing.RegionUS) <= m.RegionShare(routing.RegionEurope) {
		t.Fatal("US should dominate the mix (figure 23)")
	}
}

func TestHourWeightsNormalizedAndPeakEvening(t *testing.T) {
	m, _ := testModel(t)
	for _, r := range m.Regions() {
		var total float64
		best, bestH := 0.0, -1
		for h := 0; h < 24; h++ {
			w := m.HourWeight(r, h)
			total += w
			if w > best {
				best, bestH = w, h
			}
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("region %s hour weights sum to %v", r, total)
		}
		// Peak must be the region's local evening (20:00 local).
		wantUTC := ((20-utcOffset(r))%24 + 24) % 24
		if bestH != wantUTC {
			t.Fatalf("region %s peaks at UTC %d, want %d", r, bestH, wantUTC)
		}
	}
}

func utcOffset(r routing.Region) int { return regionUTCOffset[r] }

func TestDiurnalPeakToAverage(t *testing.T) {
	// The paper planned for a 5:1 peak-to-average ratio including event
	// spikes. Diurnal alone should give 2-4x; with a 2.8x spike the
	// combined ratio lands in the planned band.
	m, _ := testModel(t)
	var sum, peak float64
	for h := 0; h < 24; h++ {
		w := m.HourWeight(routing.RegionJapan, h)
		sum += w
		if w > peak {
			peak = w
		}
	}
	avg := sum / 24
	ratio := peak / avg
	if ratio < 1.8 || ratio > 4 {
		t.Fatalf("diurnal peak/avg = %v, want 1.8-4", ratio)
	}
	spiked := ratio * 2.8
	if spiked < 5 {
		t.Fatalf("spiked peak/avg = %v, want >= 5", spiked)
	}
}

func TestSpikeMultiplier(t *testing.T) {
	m, _ := testModel(t)
	if m.SpikeMultiplier(10, 8) <= 1 || m.SpikeMultiplier(14, 11) <= 1 {
		t.Fatal("paper spikes missing")
	}
	if m.SpikeMultiplier(1, 1) != 1 {
		t.Fatal("quiet hour has a spike")
	}
}

func TestHitsForHourComposition(t *testing.T) {
	m, _ := testModel(t)
	h := m.HitsForHour(7, 11, routing.RegionJapan)
	manual := float64(m.HitsForDay(7)) * m.RegionShare(routing.RegionJapan) * m.HourWeight(routing.RegionJapan, 11)
	if math.Abs(float64(h)-manual) > 1 {
		t.Fatalf("HitsForHour = %d, manual = %v", h, manual)
	}
}

func TestSamplePageAlwaysResolvable(t *testing.T) {
	m, st := testModel(t)
	rng := rand.New(rand.NewSource(42))
	statics := st.Statics()
	pages := make(map[string]bool)
	for _, p := range st.Pages() {
		pages[p] = true
	}
	for i := 0; i < 5000; i++ {
		day := 1 + rng.Intn(st.Spec.Days)
		p := m.SamplePage(rng, day, m.SampleRegion(rng))
		if pages[p] {
			continue
		}
		if _, ok := statics[p]; ok {
			continue
		}
		t.Fatalf("sampled unresolvable page %q", p)
	}
}

func TestSamplePageHomeShare(t *testing.T) {
	m, _ := testModel(t)
	rng := rand.New(rand.NewSource(1))
	home := 0
	const n = 20000
	for i := 0; i < n; i++ {
		p := m.SamplePage(rng, 3, routing.RegionUS)
		if strings.Contains(p, "/home/day03") {
			home++
		}
	}
	share := float64(home) / n
	// "over 25% of the users found the information they were looking for
	// by examining the home page for the current day"
	if share < 0.25 || share > 0.33 {
		t.Fatalf("current-day home share = %v, want 0.25-0.33", share)
	}
}

func TestSamplePageLanguageByRegion(t *testing.T) {
	// Japanese pages require a 2-language site.
	d := db.New("m2")
	g := odg.New()
	c := cache.New("c2")
	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	e := core.NewEngine(g, c, core.WithGenerator(gen))
	spec := site.DefaultSpec()
	spec.Languages = []string{"en", "ja"}
	var err error
	st, err = site.Build(spec, d, e)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Seed: 3, TotalHits: 1000}, st)
	rng := rand.New(rand.NewSource(2))
	ja := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if strings.HasPrefix(m.SamplePage(rng, 1, routing.RegionJapan), "/ja/") {
			ja++
		}
	}
	if share := float64(ja) / n; share < 0.7 || share > 0.9 {
		t.Fatalf("japanese-language share from Japan = %v, want ~0.8", share)
	}
	us := 0
	for i := 0; i < n; i++ {
		if strings.HasPrefix(m.SamplePage(rng, 1, routing.RegionUS), "/ja/") {
			us++
		}
	}
	if us != 0 {
		t.Fatalf("US clients sampled %d japanese pages", us)
	}
}

func TestSampleRegionDistribution(t *testing.T) {
	m, _ := testModel(t)
	rng := rand.New(rand.NewSource(5))
	counts := map[routing.Region]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[m.SampleRegion(rng)]++
	}
	for _, r := range m.Regions() {
		got := float64(counts[r]) / n
		want := m.RegionShare(r)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("region %s share = %v, want ~%v", r, got, want)
		}
	}
}

func TestCompletionsCoverAllEvents(t *testing.T) {
	m, st := testModel(t)
	total := 0
	for d := 1; d <= st.Spec.Days; d++ {
		comps := m.CompletionsForDay(d)
		for _, c := range comps {
			if c.Event.Day != d {
				t.Fatalf("completion on wrong day: %+v", c)
			}
			if c.UTCHour < 2 || c.UTCHour > 13 {
				t.Fatalf("completion outside competition window: %+v", c)
			}
		}
		total += len(comps)
	}
	if total != len(st.Events) {
		t.Fatalf("completions = %d, events = %d", total, len(st.Events))
	}
}

func TestStoriesForDay(t *testing.T) {
	m, st := testModel(t)
	seen := map[int]bool{}
	for d := 1; d <= st.Spec.Days; d++ {
		for _, n := range m.StoriesForDay(d) {
			if seen[n] {
				t.Fatalf("story %d published twice", n)
			}
			seen[n] = true
			if n >= st.Spec.NewsStories {
				t.Fatalf("story %d out of range", n)
			}
		}
	}
}

func TestNavigationRedesignRatio(t *testing.T) {
	cfg := DefaultNavConfig()
	h96 := cfg.HitsPerVisit(Design1996)
	h98 := cfg.HitsPerVisit(Design1998)
	ratio := h96 / h98
	// "over three times the maximum number of hits we received" — the
	// paper's 200M projection vs 56.8M observed is 3.52x.
	if ratio < 3.0 || ratio > 4.0 {
		t.Fatalf("hits ratio = %v, want 3-4", ratio)
	}
	proj := cfg.ProjectedDailyHits(56_800_000)
	if proj < 170_000_000 || proj > 230_000_000 {
		t.Fatalf("projected peak-day hits = %d, want ~200M", proj)
	}
}

func TestNavigationSinglePieceVisit(t *testing.T) {
	cfg := DefaultNavConfig()
	cfg.PiecesPerVisit = 1
	if got := cfg.HitsPerVisit(Design1998); got < 1 || got > cfg.FirstCost1998 {
		t.Fatalf("single-piece 1998 visit = %v", got)
	}
}

func TestDesignString(t *testing.T) {
	if Design1996.String() == Design1998.String() {
		t.Fatal("design names collide")
	}
}

func TestSampleSessionStructure(t *testing.T) {
	m, st := testModel(t)
	rng := rand.New(rand.NewSource(9))
	statics := st.Statics()
	pages := make(map[string]bool)
	for _, p := range st.Pages() {
		pages[p] = true
	}
	starts, singles, total := 0, 0, 0
	for i := 0; i < 5000; i++ {
		visit := m.SampleSession(rng, 2, routing.RegionUS)
		if len(visit) == 0 || len(visit) > 12 {
			t.Fatalf("visit length %d", len(visit))
		}
		if visit[0] == "/en/home/day02" {
			starts++
		}
		if len(visit) == 1 {
			singles++
		}
		total += len(visit)
		// Every page in a session must resolve.
		for _, p := range visit {
			if !pages[p] {
				if _, ok := statics[p]; !ok {
					t.Fatalf("session page %q unresolvable", p)
				}
			}
		}
	}
	if starts != 5000 {
		t.Fatalf("all sessions must enter at the day home page: %d", starts)
	}
	share := float64(singles) / 5000
	if share < 0.22 || share > 0.33 {
		t.Fatalf("home-satisfied share = %.3f, want ~0.27", share)
	}
	mean := float64(total) / 5000
	if mean < 1.5 || mean > 4.5 {
		t.Fatalf("mean session length = %.2f, want short 1998-style visits", mean)
	}
}

func TestSampleSessionCrossLinks(t *testing.T) {
	// Event pages must link to participants, athlete pages to their
	// country.
	m, st := testModel(t)
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for i := 0; i < 3000 && checked < 50; i++ {
		visit := m.SampleSession(rng, 1, routing.RegionUS)
		for j := 0; j+1 < len(visit); j++ {
			cur, next := visit[j], visit[j+1]
			if strings.Contains(cur, "/athletes/") && strings.Contains(next, "/countries/") {
				id := cur[strings.LastIndex(cur, "/")+1:]
				wantCC := st.AthleteCountry(id)
				gotCC := next[strings.LastIndex(next, "/")+1:]
				if wantCC != gotCC {
					t.Fatalf("athlete %s (%s) linked to country %s", id, wantCC, gotCC)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no athlete->country transitions sampled")
	}
}
