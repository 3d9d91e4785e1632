// Package workload models the client traffic and the result/news feed of
// the 1998 Olympic Games web site (sections 3.1 and 5 of the paper).
//
// The model has four parts:
//
//   - a daily volume profile shaped like Figure 20 (ramp to the day-7 peak
//     of 56.8M hits, a second swell around day 14's figure skating);
//   - per-region diurnal curves like Figure 18, with each region peaking in
//     its local evening, plus event-completion spikes (the ski-jump peak of
//     98,000 hits/minute on day 10, the figure-skating peak of 110,414 on
//     day 14);
//   - a geographic mix like Figure 23 and a page-popularity mix over the
//     site's categories (a quarter of visitors satisfied by the current
//     day's home page);
//   - a navigation model comparing the 1996 hierarchy against the 1998
//     design for the E13 redesign experiment.
//
// All sampling is driven by a caller-supplied *rand.Rand so simulations are
// reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dupserve/internal/routing"
	"dupserve/internal/site"
)

// dailyMillions is the Figure 20 shape: hits per day in millions, summing
// to the paper's 634.7M over 16 days, peaking at 56.8M on day 7.
var dailyMillions = []float64{
	20.0, 28.0, 33.0, 37.0, 42.0, 48.0, 56.8, 45.0,
	40.0, 50.0, 42.0, 38.0, 36.0, 53.0, 36.0, 29.9,
}

// TotalPaperHits is the sum of the daily profile (millions).
const TotalPaperHits = 634.7

// Region UTC offsets (hours) for the diurnal model.
var regionUTCOffset = map[routing.Region]int{
	routing.RegionUS:     -6, // US Central, between the coasts
	routing.RegionJapan:  9,
	routing.RegionEurope: 1,
	routing.RegionAsia:   8,
	routing.RegionOther:  0,
}

// regionShare is the Figure 23 geographic mix.
var regionShare = map[routing.Region]float64{
	routing.RegionUS:     0.44,
	routing.RegionJapan:  0.30,
	routing.RegionEurope: 0.13,
	routing.RegionAsia:   0.08,
	routing.RegionOther:  0.05,
}

// Spike is a scheduled traffic surge around a marquee event.
type Spike struct {
	Day        int // 1-based
	UTCHour    int
	Multiplier float64 // applied to that hour's traffic
	Name       string
}

// PaperSpikes returns the two surges the paper calls out: men's ski jumping
// finals on day 10 (98k hits/min, mostly via Tokyo) and women's figure
// skating free skate on day 14 (110,414 hits/min record).
func PaperSpikes() []Spike {
	return []Spike{
		{Day: 10, UTCHour: 8, Multiplier: 1.8, Name: "mens-ski-jumping-final"},
		{Day: 14, UTCHour: 11, Multiplier: 2.0, Name: "womens-figure-skating-free"},
	}
}

// Config parameterizes a Model.
type Config struct {
	Seed int64
	// Days of competition; defaults to len(dailyMillions).
	Days int
	// TotalHits is the full-run hit count the daily profile is scaled to.
	// The simulator typically runs at 1/1000 of paper scale.
	TotalHits int64
	// Spikes lists scheduled surges (PaperSpikes for the paper's run).
	Spikes []Spike
}

// Model generates traffic against a built site.
type Model struct {
	cfg  Config
	site *site.Site

	days       int
	dayWeights []float64     // normalized
	spikeByKey map[int]Spike // day*24+hour -> spike

	zipfEvents   *rand.Zipf
	zipfAthletes *rand.Zipf
	zipfNews     *rand.Zipf
	zipfRng      *rand.Rand
}

// New returns a model over the site. The site provides the concrete page
// paths; the model owns popularity and timing.
func New(cfg Config, st *site.Site) *Model {
	if cfg.Days <= 0 {
		cfg.Days = len(dailyMillions)
	}
	if cfg.TotalHits <= 0 {
		cfg.TotalHits = 600_000 // ~1/1000 of paper scale
	}
	m := &Model{
		cfg:        cfg,
		site:       st,
		days:       cfg.Days,
		spikeByKey: make(map[int]Spike),
	}
	var total float64
	m.dayWeights = make([]float64, cfg.Days)
	for d := 0; d < cfg.Days; d++ {
		w := dailyMillions[d%len(dailyMillions)]
		m.dayWeights[d] = w
		total += w
	}
	for d := range m.dayWeights {
		m.dayWeights[d] /= total
	}
	for _, s := range cfg.Spikes {
		m.spikeByKey[s.Day*24+s.UTCHour] = s
	}
	m.zipfRng = rand.New(rand.NewSource(cfg.Seed))
	nEvents := uint64(len(st.Events))
	if nEvents == 0 {
		nEvents = 1
	}
	nAth := uint64(len(st.AthleteIDs))
	if nAth == 0 {
		nAth = 1
	}
	nNews := uint64(st.Spec.NewsStories)
	if nNews == 0 {
		nNews = 1
	}
	m.zipfEvents = rand.NewZipf(m.zipfRng, 1.2, 1, nEvents-1+1)
	m.zipfAthletes = rand.NewZipf(m.zipfRng, 1.3, 1, nAth-1+1)
	m.zipfNews = rand.NewZipf(m.zipfRng, 1.2, 1, nNews-1+1)
	return m
}

// HitsForDay returns the target hit count for day (1-based), following the
// Figure 20 shape.
func (m *Model) HitsForDay(day int) int64 {
	if day < 1 || day > m.days {
		return 0
	}
	return int64(math.Round(float64(m.cfg.TotalHits) * m.dayWeights[day-1]))
}

// RegionShare returns the Figure 23 share for the region.
func (m *Model) RegionShare(r routing.Region) float64 { return regionShare[r] }

// Regions returns the modeled regions in stable order.
func (m *Model) Regions() []routing.Region {
	return []routing.Region{
		routing.RegionUS, routing.RegionJapan, routing.RegionEurope,
		routing.RegionAsia, routing.RegionOther,
	}
}

// HourWeight returns the relative traffic weight for the region at the
// given UTC hour: a diurnal curve peaking in the region's local evening,
// normalized so the 24 weights sum to 1.
func (m *Model) HourWeight(r routing.Region, utcHour int) float64 {
	local := ((utcHour+regionUTCOffset[r])%24 + 24) % 24
	return diurnal(local)
}

// diurnal is a normalized local-time curve: quiet 03:00, rising through
// the workday, peaking 20:00.
func diurnal(localHour int) float64 {
	// Base 1 plus an evening gaussian and a lunchtime bump.
	h := float64(localHour)
	w := 0.35 +
		1.6*math.Exp(-sq(angularDist(h, 20))/10) +
		0.7*math.Exp(-sq(angularDist(h, 13))/6)
	return w / diurnalNorm
}

var diurnalNorm = func() float64 {
	var t float64
	for h := 0; h < 24; h++ {
		hh := float64(h)
		t += 0.35 +
			1.6*math.Exp(-sq(angularDist(hh, 20))/10) +
			0.7*math.Exp(-sq(angularDist(hh, 13))/6)
	}
	return t
}()

func sq(x float64) float64 { return x * x }

// angularDist is the wrap-around distance between two hours of day.
func angularDist(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 12 {
		d = 24 - d
	}
	return d
}

// SpikeMultiplier returns the surge factor for (day, utcHour): 1 normally,
// the configured multiplier during a scheduled spike.
func (m *Model) SpikeMultiplier(day, utcHour int) float64 {
	if s, ok := m.spikeByKey[day*24+utcHour]; ok {
		return s.Multiplier
	}
	return 1
}

// HitsForHour returns the target hits for a (day, utcHour, region) cell:
// day volume x region share x region-local diurnal weight x spike factor,
// renormalized over the day so that spikes concentrate traffic into their
// hour without inflating the daily total — a marquee event pulls the
// audience forward, it does not mint new visitors (day 14 had the record
// minute, but day 7 remained the record day).
func (m *Model) HitsForHour(day, utcHour int, r routing.Region) int64 {
	var norm float64
	for h := 0; h < 24; h++ {
		norm += m.HourWeight(r, h) * m.SpikeMultiplier(day, h)
	}
	if norm <= 0 {
		return 0
	}
	w := m.HourWeight(r, utcHour) * m.SpikeMultiplier(day, utcHour) / norm
	return int64(math.Round(float64(m.HitsForDay(day)) * m.RegionShare(r) * w))
}

// SampleRegion draws a region from the Figure 23 mix.
func (m *Model) SampleRegion(rng *rand.Rand) routing.Region {
	x := rng.Float64()
	for _, r := range m.Regions() {
		x -= regionShare[r]
		if x < 0 {
			return r
		}
	}
	return routing.RegionOther
}

// SamplePage draws a page path for a request arriving on the given day from
// the given region. The category mix reflects the 1998 logs: over a quarter
// of users found what they wanted on the current day's home page.
func (m *Model) SamplePage(rng *rand.Rand, day int, r routing.Region) string {
	lang := "en"
	if r == routing.RegionJapan && len(m.site.Spec.Languages) > 1 && rng.Float64() < 0.8 {
		lang = m.site.Spec.Languages[1]
	}
	x := rng.Float64()
	switch {
	case x < 0.28: // current day's home page
		return fmt.Sprintf("/%s/home/day%02d", lang, clamp(day, 1, m.site.Spec.Days))
	case x < 0.36: // an earlier day's home page
		d := 1
		if day > 1 {
			d = 1 + rng.Intn(day)
		}
		return fmt.Sprintf("/%s/home/day%02d", lang, clamp(d, 1, m.site.Spec.Days))
	case x < 0.56: // sport and event pages, Zipf over events
		ev := m.site.Events[m.zipfIndex(m.zipfEvents, len(m.site.Events))]
		if rng.Float64() < 0.35 {
			return "/" + lang + "/sports/" + ev.Sport
		}
		return "/" + lang + "/sports/" + ev.Sport + "/" + ev.Key
	case x < 0.71: // athlete pages
		id := m.site.AthleteIDs[m.zipfIndex(m.zipfAthletes, len(m.site.AthleteIDs))]
		return "/" + lang + "/athletes/" + id
	case x < 0.79: // country pages
		cc := m.site.CountryCodes[rng.Intn(len(m.site.CountryCodes))]
		return "/" + lang + "/countries/" + cc
	case x < 0.89: // news
		if rng.Float64() < 0.3 {
			return "/" + lang + "/news"
		}
		n := m.zipfIndex(m.zipfNews, m.site.Spec.NewsStories)
		return fmt.Sprintf("/%s/news/n%03d", lang, n)
	case x < 0.93: // medal standings
		return "/" + lang + "/medals"
	default: // static sections
		statics := []string{"/welcome", "/venues", "/nagano", "/fun"}
		return "/" + lang + statics[rng.Intn(len(statics))]
	}
}

// zipfIndex draws a bounded index from a Zipf source. rand.Zipf is not
// safe for concurrent use; the Model serializes access through its own rng,
// so SamplePage must be called from one goroutine at a time (the simulator
// does, per run).
func (m *Model) zipfIndex(z *rand.Zipf, n int) int {
	if n <= 0 {
		return 0
	}
	v := int(z.Uint64())
	if v >= n {
		v = n - 1
	}
	return v
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Completion schedules one event's result arriving during the games.
type Completion struct {
	Event   *site.Event
	Day     int
	UTCHour int
	Minute  int
}

// CompletionsForDay lists the events whose results arrive on the given day,
// spread deterministically across the competition hours (02:00-14:00 UTC,
// i.e. 11:00-23:00 JST — Nagano's competition window).
func (m *Model) CompletionsForDay(day int) []Completion {
	var out []Completion
	i := 0
	for _, ev := range m.site.Events {
		if ev.Day != day {
			continue
		}
		out = append(out, Completion{
			Event:   ev,
			Day:     day,
			UTCHour: 2 + (i*3)%12,
			Minute:  (i * 17) % 60,
		})
		i++
	}
	return out
}

// NewsPerDay is how many stories the editorial desk publishes daily.
const NewsPerDay = 20

// StoriesForDay returns the story numbers published on the given day (story
// pages exist for all numbers up front; publishing fills them in).
func (m *Model) StoriesForDay(day int) []int {
	var out []int
	for i := 0; i < NewsPerDay; i++ {
		n := (day-1)*NewsPerDay + i
		if n >= m.site.Spec.NewsStories {
			break
		}
		out = append(out, n)
	}
	return out
}
