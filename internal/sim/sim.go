// Package sim runs the 16-day Olympic Games deployment as a deterministic
// discrete-event simulation, producing every series the paper's evaluation
// reports: hits by day (figure 20), bytes by day (figure 21), response
// times by day and region (figure 22), geographic breakdown (figure 23),
// hourly traffic per complex (figure 18), peak-minute statistics, cache hit
// rates under the three propagation policies, page-regeneration volume and
// freshness, and availability under failure injection.
//
// The simulated plant mirrors the paper: a master database feeding a DUP
// engine whose updates are distributed to the caches of every serving node
// in four geographic complexes (Tokyo, Schaumburg, Columbus, Bethesda),
// fronted by Network Dispatchers and MSIRP routing. Time advances in
// simulated hours; traffic within an hour is generated per request so cache
// and dispatcher behaviour is exercised end to end, not approximated.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/cluster"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/deploy"
	"dupserve/internal/netsim"
	"dupserve/internal/odg"
	"dupserve/internal/routing"
	"dupserve/internal/site"
	"dupserve/internal/stats"
	"dupserve/internal/workload"
)

// FailureKind selects a failure-injection level.
type FailureKind int

const (
	// FailNode downs one serving node.
	FailNode FailureKind = iota
	// FailFrame downs one SP2 frame (all its nodes).
	FailFrame
	// FailComplex downs an entire geographic complex.
	FailComplex
)

// Failure schedules an outage.
type Failure struct {
	Day     int // 1-based
	Hour    int // UTC, 0-23
	Complex string
	Kind    FailureKind
	// Frame index for FailFrame (node failures use frame 0, node 0).
	Frame int
	// DurationHours until recovery.
	DurationHours int
}

// Config parameterizes a simulation run.
type Config struct {
	Seed      int64
	SiteSpec  site.Spec
	TotalHits int64
	Policy    core.Policy
	// Frames and NodesPerFrame size each complex (scaled down from the
	// paper's 3-4 frames x 8 nodes to keep broadcast cost proportionate).
	Frames        int
	NodesPerFrame int
	// PartialsPerEvent is how many intermediate scoring updates precede
	// each final result.
	PartialsPerEvent int
	// Failures to inject (nil = none).
	Failures []Failure
	// USCongestion multiplies US client-path congestion on days 7-9,
	// reproducing the figure-22 blip the paper attributes to causes
	// external to the site.
	USCongestion float64
	// Spikes are the scheduled traffic surges.
	Spikes []workload.Spike
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

// DefaultConfig returns the paper-shaped run at 1/1000 traffic scale.
func DefaultConfig() Config {
	return Config{
		Seed:             1998,
		SiteSpec:         site.PaperSpec(),
		TotalHits:        600_000,
		Policy:           core.PolicyUpdateInPlace,
		Frames:           2,
		NodesPerFrame:    2,
		PartialsPerEvent: 16,
		USCongestion:     1.6,
		Spikes:           workload.PaperSpikes(),
		Failures: []Failure{
			{Day: 3, Hour: 5, Complex: "columbus", Kind: FailNode, DurationHours: 2},
			{Day: 6, Hour: 9, Complex: "schaumburg", Kind: FailFrame, DurationHours: 3},
			{Day: 9, Hour: 4, Complex: "bethesda", Kind: FailComplex, DurationHours: 4},
			{Day: 12, Hour: 7, Complex: "tokyo", Kind: FailNode, DurationHours: 1},
		},
	}
}

// HybridHotHits is the request count at which the hybrid policy considers
// a page hot enough for eager regeneration.
const HybridHotHits = 3

// PeakMinute records the busiest simulated minute.
type PeakMinute struct {
	Day    int
	Hour   int
	Minute int
	Hits   int64
}

// Result carries every series the experiments report.
type Result struct {
	Days       int
	Scale      float64 // TotalHits / paper total, for rescaling labels
	HitsByDay  []int64
	BytesByDay []int64
	// HourlyByComplex[name][utcHour] = average hits in that hour per day.
	HourlyByComplex map[string][24]float64
	// ResponseByRegion[region][day-1] = home-page response seconds on a
	// 28.8 modem.
	ResponseByRegion map[routing.Region][]float64
	GeoBreakdown     map[routing.Region]int64
	ComplexBreakdown map[string]int64

	// Cache behaviour aggregated over all serving nodes.
	DynamicHits   int64
	DynamicMisses int64
	HitRate       float64
	StaticHits    int64

	PeakMinute           PeakMinute
	SkiJumpMinuteHits    int64   // busiest minute of the day-10 spike hour
	SkiJumpTokyoShare    float64 // fraction of that hour served by Tokyo
	RegenByDay           []int64
	TotalRegens          int64
	FreshnessMeanSec     float64
	FreshnessMaxSec      float64
	Availability         float64
	Outages              int64
	Rejected             int64
	CachePeakBytesSingle int64
	CacheItemsSingle     int
	PagesTotal           int
	WallClock            time.Duration
}

// multiStore broadcasts DUP remedies to every complex's cache group — the
// paper's "distributed updated pages to each of the UP's serving the
// Internet", across all sites.
type multiStore struct {
	groups []*cache.Group
}

func (m multiStore) ApplyPut(obj *cache.Object) {
	for _, g := range m.groups {
		g.BroadcastPut(obj)
	}
}

func (m multiStore) ApplyInvalidate(key cache.Key) int {
	n := 0
	for _, g := range m.groups {
		n += g.BroadcastInvalidate(key)
	}
	return n
}

func (m multiStore) ApplyInvalidatePrefix(prefix string) int {
	n := 0
	for _, g := range m.groups {
		n += g.BroadcastInvalidatePrefix(prefix)
	}
	return n
}

type runner struct {
	cfg    Config
	rng    *rand.Rand
	master *db.DB
	engine *core.Engine
	site   *site.Site
	model  *workload.Model
	router *routing.Router

	complexes map[string]*cluster.Complex
	names     []string

	addrRR int

	freshness stats.Summary
	ledger    cluster.Ledger

	minuteMax     PeakMinute
	minuteCounts  [60]int64 // reused per hour
	uniformMinute []float64
	spikyMinute   []float64
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	start := time.Now()
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 1
	}
	if cfg.NodesPerFrame <= 0 {
		cfg.NodesPerFrame = 4
	}
	if cfg.USCongestion < 1 {
		cfg.USCongestion = 1
	}

	r := &runner{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	r.master = db.New("nagano-master")

	// DUP engine over a store spanning every complex.
	graph := odg.New()
	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}

	r.complexes = make(map[string]*cluster.Complex)
	var groups []*cache.Group
	var err error
	// Construction order: the engine is the site's dependency registrar,
	// so it must exist first; its generator and conservative mapper close
	// over the site pointer, bound below (late binding breaks the cycle).
	store := &multiStore{}
	var opts []core.Option
	switch cfg.Policy {
	case core.PolicyInvalidate:
		opts = []core.Option{core.WithPolicy(core.PolicyInvalidate)}
	case core.PolicyConservative:
		opts = []core.Option{
			core.WithPolicy(core.PolicyConservative),
			core.WithConservativeMapper(func(id odg.NodeID) []string {
				return st.ConservativeMapper(id)
			}),
		}
	case core.PolicyHybrid:
		// Hotness observed on one representative serving cache: a page
		// requested at least HybridHotHits times is regenerated eagerly.
		opts = []core.Option{
			core.WithGenerator(gen),
			core.WithPolicy(core.PolicyHybrid),
			core.WithHotOracle(func(key cache.Key) bool {
				if len(r.names) == 0 {
					return true
				}
				c := r.complexes[r.names[0]].Caches.Members()[0]
				return c.HitCount(key) >= HybridHotHits
			}),
		}
	default:
		opts = []core.Option{core.WithGenerator(gen)}
	}
	r.engine = core.NewEngine(graph, store, opts...)
	st, err = site.Build(cfg.SiteSpec, r.master, r.engine)
	if err != nil {
		return nil, err
	}
	r.site = st
	// Incremental propagation: rebuild affected pages by splicing cached
	// fragment bytes instead of re-rendering each fragment under every page.
	r.engine.SetAssembler(st.Engine)

	// The live deployment's four sites and backbone distances; the
	// simulation models their replication delays itself.
	sites := deploy.NaganoConfig(cfg.SiteSpec).Complexes
	statics := st.Statics()
	for _, tp := range sites {
		cx := cluster.NewComplex(cluster.Config{
			Name:          tp.Name,
			Frames:        cfg.Frames,
			NodesPerFrame: cfg.NodesPerFrame,
			Generator:     gen,
			Version:       r.master.LSN,
			Statics:       statics,
		})
		r.complexes[tp.Name] = cx
		r.names = append(r.names, tp.Name)
		groups = append(groups, cx.Caches)
	}
	store.groups = groups

	r.router = routing.NewRouter(routing.NumAddresses)
	for _, tp := range sites {
		r.router.AddComplex(tp.Name, r.complexes[tp.Name], tp.Distance)
	}
	if err := r.router.AdvertiseSpread(r.names, 10, 20); err != nil {
		return nil, err
	}

	r.model = workload.New(workload.Config{
		Seed:      cfg.Seed + 1,
		Days:      cfg.SiteSpec.Days,
		TotalHits: cfg.TotalHits,
		Spikes:    cfg.Spikes,
	}, st)

	// Prime every cache: the paper pre-rendered and distributed all
	// dynamic pages, so the site opened warm.
	logf("prerendering %d pages into %d complexes", len(st.Pages()), len(r.names))
	if err := st.PrerenderAll(r.master.LSN(), func(o *cache.Object) {
		store.ApplyPut(o)
	}); err != nil {
		return nil, err
	}
	for _, cx := range r.complexes {
		for _, c := range cx.Caches.Members() {
			c.ResetCounters()
		}
	}

	r.buildMinuteWeights()
	return r.mainLoop(start, logf)
}

func (r *runner) buildMinuteWeights() {
	r.uniformMinute = make([]float64, 60)
	r.spikyMinute = make([]float64, 60)
	var us, ss float64
	for m := 0; m < 60; m++ {
		r.uniformMinute[m] = 1
		us++
		d := float64(m - 30)
		w := 1 + 1.2*math.Exp(-d*d/120)
		r.spikyMinute[m] = w
		ss += w
	}
	for m := 0; m < 60; m++ {
		r.uniformMinute[m] /= us
		r.spikyMinute[m] /= ss
	}
}

type failureAction struct {
	apply func()
}

func (r *runner) mainLoop(start time.Time, logf func(string, ...any)) (*Result, error) {
	cfg := r.cfg
	days := cfg.SiteSpec.Days
	res := &Result{
		Days:             days,
		Scale:            float64(cfg.TotalHits) / (workload.TotalPaperHits * 1e6),
		HitsByDay:        make([]int64, days),
		BytesByDay:       make([]int64, days),
		HourlyByComplex:  make(map[string][24]float64),
		ResponseByRegion: make(map[routing.Region][]float64),
		GeoBreakdown:     make(map[routing.Region]int64),
		ComplexBreakdown: make(map[string]int64),
		RegenByDay:       make([]int64, days),
		PagesTotal:       len(r.site.Pages()),
	}
	hourlyAccum := make(map[string]*[24]float64)
	for _, n := range r.names {
		hourlyAccum[n] = &[24]float64{}
	}
	for _, rg := range r.model.Regions() {
		res.ResponseByRegion[rg] = make([]float64, days)
	}

	// Failure schedule: (day, hour) -> actions.
	schedule := make(map[[2]int][]failureAction)
	for _, f := range cfg.Failures {
		f := f
		cx := r.complexes[f.Complex]
		if cx == nil {
			return nil, fmt.Errorf("sim: failure references unknown complex %q", f.Complex)
		}
		add := func(day, hour int, fn func()) {
			k := [2]int{day, hour}
			schedule[k] = append(schedule[k], failureAction{apply: fn})
		}
		name := f.Complex
		switch f.Kind {
		case FailNode:
			node := cx.Frames[0].Nodes[0]
			add(f.Day, f.Hour, func() { node.Fail(); cx.Advise() })
			add(recoverAt(f, days)[0], recoverAt(f, days)[1], func() {
				node.Recover()
				cx.Advise()
				// The router may have marked the complex down if this was
				// its last healthy node; recovery re-advertises.
				r.router.SetComplexUp(name, true)
				r.reprime(cx, node)
			})
		case FailFrame:
			fi := f.Frame
			if fi < 0 || fi >= len(cx.Frames) {
				fi = 0
			}
			add(f.Day, f.Hour, func() { cx.FailFrame(fi) })
			add(recoverAt(f, days)[0], recoverAt(f, days)[1], func() {
				cx.RecoverFrame(fi)
				r.router.SetComplexUp(name, true)
				r.reprime(cx, cx.Frames[fi].Nodes...)
			})
		case FailComplex:
			add(f.Day, f.Hour, func() { cx.FailAll() })
			add(recoverAt(f, days)[0], recoverAt(f, days)[1], func() {
				cx.RecoverAll()
				r.router.SetComplexUp(name, true)
				r.reprime(cx, cx.Nodes()...)
			})
		}
	}

	prevHits, prevMisses := r.dynamicCounters()
	var rejected int64

	for day := 1; day <= days; day++ {
		if day > 1 {
			tx, err := r.site.SetCurrentDay(day)
			if err != nil {
				return nil, err
			}
			r.propagate(tx, day)
		}
		// Editorial desk: publish the day's stories through the morning,
		// plus a handful of classified photographs of yesterday's medal
		// winners.
		for _, sn := range r.model.StoriesForDay(day) {
			tx, err := r.site.PublishNews(sn, fmt.Sprintf("Day %d story %d", day, sn), "Reported from Nagano.")
			if err != nil {
				return nil, err
			}
			r.propagate(tx, day)
		}
		for p := 0; p < 5; p++ {
			athlete := r.site.AthleteIDs[r.rng.Intn(len(r.site.AthleteIDs))]
			tx, err := r.site.PublishPhoto(day*10+p, "athlete:"+athlete, fmt.Sprintf("Day %d photo %d", day, p))
			if err != nil {
				return nil, err
			}
			r.propagate(tx, day)
		}
		// Result schedule for the day, grouped by hour.
		compsByHour := make(map[int][]workload.Completion)
		for _, c := range r.model.CompletionsForDay(day) {
			compsByHour[c.UTCHour] = append(compsByHour[c.UTCHour], c)
		}

		dayStartHits, dayStartMisses := prevHits, prevMisses
		for hour := 0; hour < 24; hour++ {
			for _, act := range schedule[[2]int{day, hour}] {
				act.apply()
			}
			// Results arriving this hour: partial updates then the final.
			for _, comp := range compsByHour[hour] {
				ev := comp.Event
				for p := 0; p < cfg.PartialsPerEvent; p++ {
					leader := ev.Participants[(p*5)%len(ev.Participants)]
					tx, err := r.site.RecordPartial(ev, leader, fmt.Sprintf("%d.%02d", 200+p, p))
					if err != nil {
						return nil, err
					}
					r.propagate(tx, day)
				}
				g, s, b := podium(ev, r.rng)
				tx, err := r.site.RecordResult(ev, g, s, b, fmt.Sprintf("%d.%d", 240+ev.Num, ev.Num))
				if err != nil {
					return nil, err
				}
				r.propagate(tx, day)
			}

			// Client traffic.
			spiked := r.model.SpikeMultiplier(day, hour) > 1
			minuteW := r.uniformMinute
			if spiked {
				minuteW = r.spikyMinute
			}
			for m := range r.minuteCounts {
				r.minuteCounts[m] = 0
			}
			var hourHits, hourTokyo int64
			hourErrors := int64(0)
			for _, region := range r.model.Regions() {
				n := r.model.HitsForHour(day, hour, region)
				for i := int64(0); i < n; i++ {
					page := r.model.SamplePage(r.rng, day, region)
					addr := routing.Address(r.addrRR % r.router.NumAddrs())
					r.addrRR++
					obj, _, complexName, err := r.router.RequestVia(region, addr, page)
					if err != nil {
						hourErrors++
						rejected++
						continue
					}
					res.HitsByDay[day-1]++
					res.BytesByDay[day-1] += int64(len(obj.Value))
					res.GeoBreakdown[region]++
					res.ComplexBreakdown[complexName]++
					hourlyAccum[complexName][hour]++
					hourHits++
					if complexName == "tokyo" {
						hourTokyo++
					}
					mi := sampleIndex(r.rng, minuteW)
					r.minuteCounts[mi]++
				}
			}
			// Peak-minute bookkeeping.
			for m, c := range r.minuteCounts {
				if c > r.minuteMax.Hits {
					r.minuteMax = PeakMinute{Day: day, Hour: hour, Minute: m, Hits: c}
				}
			}
			if day == 10 && spiked && hourHits > 0 {
				var best int64
				for _, c := range r.minuteCounts {
					if c > best {
						best = c
					}
				}
				res.SkiJumpMinuteHits = best
				res.SkiJumpTokyoShare = float64(hourTokyo) / float64(hourHits)
			}
			r.ledger.Record(hourErrors == 0)
		}

		// End-of-day response-time measurement (figure 22).
		hits, misses := r.dynamicCounters()
		dayMissShare := missShare(hits-dayStartHits, misses-dayStartMisses)
		prevHits, prevMisses = hits, misses
		for ri, region := range r.model.Regions() {
			congestion := 1.0 + 0.035*float64((day+ri)%4)
			if region == routing.RegionUS && day >= 7 && day <= 9 {
				congestion *= cfg.USCongestion
			}
			serverTime := 2*time.Millisecond + time.Duration(dayMissShare*float64(40*time.Millisecond))
			ft := netsim.FetchTime(netsim.Modem288(), netsim.HomePage1998(), serverTime, congestion)
			res.ResponseByRegion[region][day-1] = ft.Seconds()
		}
		regenSoFar := r.engine.Stats().Updated + r.engine.Stats().Invalidated
		res.RegenByDay[day-1] = regenSoFar - sum64(res.RegenByDay[:day-1])
		logf("day %2d: hits=%8d regens=%6d missShare=%.4f", day, res.HitsByDay[day-1], res.RegenByDay[day-1], dayMissShare)
	}

	// Final aggregation.
	hits, misses := r.dynamicCounters()
	res.DynamicHits, res.DynamicMisses = hits, misses
	if hits+misses > 0 {
		res.HitRate = float64(hits) / float64(hits+misses)
	}
	for name, acc := range hourlyAccum {
		var avg [24]float64
		for h := 0; h < 24; h++ {
			avg[h] = acc[h] / float64(days)
		}
		res.HourlyByComplex[name] = avg
	}
	res.PeakMinute = r.minuteMax
	es := r.engine.Stats()
	res.TotalRegens = es.Updated + es.Invalidated
	res.FreshnessMeanSec = r.freshness.Mean()
	res.FreshnessMaxSec = r.freshness.Max()
	res.Availability = r.ledger.Availability()
	res.Outages = r.ledger.Outages()
	res.Rejected = rejected
	// Single-copy cache footprint: one serving node's cache (they all hold
	// the same set under update-in-place).
	one := r.complexes[r.names[0]].Caches.Members()[0]
	res.CachePeakBytesSingle = one.PeakBytes()
	res.CacheItemsSingle = one.Len()
	res.WallClock = time.Since(start)
	return res, nil
}

// reprime installs the current page set of a warm peer cache, sharing its
// immutable objects, into the recovered nodes' cold caches — the
// operational warm-up the paper's trigger-monitor distribution made
// routine, without which hot pages would miss until traffic re-faulted
// them in.
func (r *runner) reprime(cx *cluster.Complex, nodes ...*cluster.Node) {
	var src *cache.Cache
	for _, name := range r.names {
		for _, c := range r.complexes[name].Caches.Members() {
			if c.Len() > 0 {
				src = c
				break
			}
		}
		if src != nil {
			break
		}
	}
	if src == nil {
		return
	}
	for _, n := range nodes {
		dst, ok := cx.Caches.Get(n.Name())
		if !ok || dst == src {
			continue
		}
		for _, k := range src.Keys() {
			if o, ok := src.Peek(k); ok {
				dst.Put(o)
			}
		}
	}
}

// propagate maps a committed transaction through the site's indexer into
// one DUP propagation, and records the end-to-end freshness latency
// (replication to the farthest complex plus rendering and distribution).
func (r *runner) propagate(tx db.Transaction, day int) {
	if tx.LSN == 0 {
		return
	}
	var changed []odg.NodeID
	seen := make(map[odg.NodeID]struct{})
	for _, c := range tx.Changes {
		for _, id := range r.site.Indexer(c) {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				changed = append(changed, id)
			}
		}
	}
	pres := r.engine.OnChange(tx.LSN, changed...)
	pages := pres.Updated + pres.Invalidated
	// Freshness model: master->complex replication (chained shipping to
	// the US east coast dominates) + render + distribution.
	const replicationSec = 5.0
	lat := replicationSec + 0.03 + 0.002*float64(pages)
	r.freshness.Observe(lat)
}

func (r *runner) dynamicCounters() (hits, misses int64) {
	for _, cx := range r.complexes {
		agg := cx.Caches.AggregateStats()
		hits += agg.Hits
		misses += agg.Misses
	}
	return hits, misses
}

func recoverAt(f Failure, days int) [2]int {
	h := f.Hour + f.DurationHours
	d := f.Day + h/24
	h %= 24
	if d > days {
		d, h = days, 23
	}
	return [2]int{d, h}
}

func podium(ev *site.Event, rng *rand.Rand) (g, s, b string) {
	n := len(ev.Participants)
	if n == 0 {
		return "", "", ""
	}
	if n < 3 {
		// Degenerate toy events: reuse participants rather than spinning
		// looking for three distinct ones.
		return ev.Participants[0], ev.Participants[n-1], ev.Participants[0]
	}
	i := rng.Intn(n)
	j := (i + 1 + rng.Intn(max(n-1, 1))) % n
	k := (j + 1 + rng.Intn(max(n-1, 1))) % n
	if j == i {
		j = (i + 1) % n
	}
	for k == i || k == j {
		k = (k + 1) % n
	}
	return ev.Participants[i], ev.Participants[j], ev.Participants[k]
}

func sampleIndex(rng *rand.Rand, weights []float64) int {
	x := rng.Float64()
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

func missShare(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}

func sum64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}
