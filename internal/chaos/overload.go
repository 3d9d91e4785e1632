package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dupserve/internal/core"
	"dupserve/internal/deploy"
	"dupserve/internal/httpserver"
	"dupserve/internal/overload"
	"dupserve/internal/routing"
	"dupserve/internal/site"
)

// nodeSlots is the per-node render concurrency for the scenario plant:
// small enough that a modest flood saturates it.
const nodeSlots = 1

// renderSpin is the synthetic per-render CPU cost (iterations of
// httpserver.SpinOverhead). Without it a render completes in microseconds
// and the flood never contends for slots; with it a commit's invalidation
// fan-out turns the flood into real slot pressure.
const renderSpin = 10_000_000

// commitPace is the gap between flood-phase commits. Each commit
// re-invalidates its event's pages; at this pace a hot page spends most of
// its time invalidated, so the flood keeps contending for render slots.
const commitPace = 100 * time.Microsecond

// clientThink paces each synthetic client between requests. Without it the
// in-process hit path is so fast that an entire flood completes before a
// single commit's invalidation has propagated; with it the flood spans
// hundreds of commit cycles and the hot pages stay contended.
const clientThink = 100 * time.Microsecond

// OverloadConfig describes an overload scenario run.
type OverloadConfig struct {
	// Seed drives client page selection.
	Seed int64
	// Clients is the estimated serving capacity in concurrent clients
	// (default: the plant's total render slots). The flood runs at
	// Surge x Clients.
	Clients int
	// Surge is the flood multiplier (default 5 — the 5:1 overload of the
	// scenario).
	Surge int
	// RequestsPerClient is how many requests each flood client issues
	// (default 80).
	RequestsPerClient int
	// StaleBudget bounds how old a degraded response may be (default 1m).
	StaleBudget time.Duration
	// SLO is the freshness objective for the residual probe (default 60s).
	SLO time.Duration
	// Timeout bounds each convergence wait (default 30s).
	Timeout time.Duration
	// Out receives the scenario report (default: discard).
	Out io.Writer
}

func (cfg OverloadConfig) withDefaults(capacity int) OverloadConfig {
	if cfg.Clients <= 0 {
		cfg.Clients = capacity
	}
	if cfg.Surge <= 0 {
		cfg.Surge = 5
	}
	if cfg.RequestsPerClient <= 0 {
		cfg.RequestsPerClient = 80
	}
	if cfg.StaleBudget <= 0 {
		cfg.StaleBudget = time.Minute
	}
	if cfg.SLO <= 0 {
		cfg.SLO = 60 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	return cfg
}

// PhaseStats counts request outcomes over one traffic phase.
type PhaseStats struct {
	Requests int64
	Hits     int64
	Misses   int64
	Stale    int64 // degraded to a bounded-staleness copy
	Shed     int64 // client-visible refusals
	Errors   int64 // anything else — the invariant is 0
}

// OverloadResult is the scenario outcome.
type OverloadResult struct {
	Seed     int64
	Baseline PhaseStats
	Flood    PhaseStats
	// HitAdmitted: with every render slot on every node held, a cached page
	// was still served as a hit.
	HitAdmitted bool
	// StaleServed: under the same total saturation, an invalidated page was
	// served from its retained copy (OutcomeStale), not refused.
	StaleServed bool
	// Withdrawn: the load advisor withdrew advertised addresses from every
	// saturated complex.
	Withdrawn bool
	// BlackHoled: some address lost every advertiser (invariant: false).
	BlackHoled bool
	// OverBudgetServers counts servers whose worst served staleness exceeded
	// the budget (invariant: 0).
	OverBudgetServers int
	// Reconverged: every complex reached the master's LSN after the flood.
	Reconverged bool
	// Restored: loads subsided and every withdrawn address was re-advertised.
	Restored bool
	// StalePages and ResidualViolations as in the tournament (invariant: 0).
	StalePages         int
	ResidualViolations int64
	// Audit is the post-recovery consistency sweep: the reconverged plant
	// must be provably coherent against a shadow render.
	Audit AuditSummary
	OK    bool
}

// overloadDeployment builds the scenario plant: the tournament topology
// under PolicyInvalidate (so commits produce misses, which is what admission
// control meters) with per-node limiters and stale retention.
func overloadDeployment(cfg OverloadConfig) (*deploy.Deployment, error) {
	return deploy.New(deploy.Config{
		Spec:       spec(),
		Complexes:  topology(),
		Policy:     core.PolicyInvalidate,
		RenderCost: httpserver.SpinOverhead(renderSpin),
	},
		deploy.WithOverload(overload.Config{
			MaxConcurrent: nodeSlots,
			// No wait queue: a saturated node degrades immediately rather
			// than stacking queue delay, which keeps the scenario's
			// saturation phase deterministic.
			MaxQueue: -1,
		}, cfg.StaleBudget),
		deploy.WithTracing(cfg.SLO),
		deploy.WithAudit(),
	)
}

// capacity is the plant's total render slots.
func capacity(d *deploy.Deployment) int {
	n := 0
	for _, cx := range d.Complexes() {
		n += len(cx.Cluster.Nodes()) * nodeSlots
	}
	return n
}

// RunOverload executes the overload scenario: a synthetic request flood at
// a multiple of the plant's render capacity, asserting the
// graceful-degradation invariants of the overload path end to end:
//
//  1. Hits are always admitted. Admission control guards renders only, so a
//     fully saturated node still serves every cached page.
//  2. Degradation is stale-but-bounded, never silent. A shed render falls
//     back to the invalidated entry's retained copy within the staleness
//     budget; no server ever serves a page older than the budget, and
//     client-visible refusals stay a bounded fraction of the flood.
//  3. The routing layer reacts and recovers. Saturated complexes have
//     addresses withdrawn in 8 1/3 % steps without black-holing any
//     address, and everything is re-advertised once the surge clears.
//  4. The pipeline reconverges: after the flood, every complex reaches the
//     master's LSN with zero stale pages and zero residual freshness-SLO
//     violations.
//
// Determinism follows the tournament's convention: the report prints only
// invariant quantities (fixed request counts, zero-counts, booleans), so
// output is byte-for-byte identical across runs with the same seed as long
// as the invariants hold. Timing-dependent counts (how many requests
// degraded to stale, how many renders each node admitted) live in the
// Result for tests but never in the report.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	cfg = cfg.withDefaults(0)
	d, err := overloadDeployment(cfg)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(capacity(d))
	ctx := context.Background()
	if err := d.Start(ctx); err != nil {
		return nil, err
	}
	defer func() { _ = d.Shutdown(ctx) }()
	if err := d.Prime(cfg.Timeout); err != nil {
		return nil, err
	}

	res := &OverloadResult{Seed: cfg.Seed}
	events := d.MasterSite.Events
	lastLSN := make(map[string]int64)
	regions := []routing.Region{routing.RegionJapan, routing.RegionUS, routing.RegionEurope}
	pages := floodPages(events)

	fmt.Fprintf(cfg.Out, "overload scenario: seed=%d capacity=%d clients surge=%dx requests/client=%d stale_budget=%s\n",
		cfg.Seed, cfg.Clients, cfg.Surge, cfg.RequestsPerClient, cfg.StaleBudget)

	// Phase 1 — baseline at estimated capacity: a primed site under 1x load
	// serves everything from cache with zero sheds and zero errors.
	res.Baseline = flood(d, cfg.Clients, cfg.RequestsPerClient, pages, regions, cfg.Seed)
	fmt.Fprintf(cfg.Out, "phase baseline: requests=%d errors=%d sheds=%d\n",
		res.Baseline.Requests, res.Baseline.Errors, res.Baseline.Shed)

	// Phase 2 — deterministic saturation: invalidate the hot page, then hold
	// every render slot on every node (the synthetic resident flood) and
	// assert the degradation contract point-blank.
	hot := events[0]
	tx, err := d.MasterSite.RecordPartial(hot, hot.Participants[0], "surge.0")
	if err != nil {
		return nil, fmt.Errorf("overload: surge commit: %w", err)
	}
	lastLSN[hot.Key] = tx.LSN
	if !d.WaitFresh(cfg.Timeout) {
		return nil, fmt.Errorf("overload: invalidation did not propagate")
	}
	releases := holdAllSlots(d)
	res.HitAdmitted = true
	res.StaleServed = true
	for _, region := range regions {
		// The invalidated page must degrade to its retained copy...
		if _, outcome, _, err := d.Serve(region, eventPage(hot)); err != nil || outcome != httpserver.OutcomeStale {
			res.StaleServed = false
		}
		// ...while an untouched page is still a plain admitted hit.
		if _, outcome, _, err := d.Serve(region, "/en/news/n000"); err != nil || outcome != httpserver.OutcomeHit {
			res.HitAdmitted = false
		}
	}
	loads := d.AdviseLoad()
	res.Withdrawn = true
	for _, cx := range d.Complexes() {
		if loads[cx.Name] < 1 || len(d.Router.LoadShedAddrs(cx.Name)) == 0 {
			res.Withdrawn = false
		}
	}
	for _, region := range regions {
		for addr := 0; addr < routing.NumAddresses; addr++ {
			if len(d.Router.Route(region, routing.Address(addr))) == 0 {
				res.BlackHoled = true
			}
		}
	}
	for _, release := range releases {
		release()
	}
	fmt.Fprintf(cfg.Out, "phase saturate: hit_admitted=%t stale_served=%t withdrawn=%t black_holed=%t\n",
		res.HitAdmitted, res.StaleServed, res.Withdrawn, res.BlackHoled)

	// Phase 3 — the flood: Surge x capacity concurrent clients while results
	// keep committing (each commit re-invalidates its pages, so the flood is
	// a steady mix of hits, renders, and degradations) and the load advisor
	// keeps sweeping.
	var wg sync.WaitGroup
	var fl phaseCounters
	clients := cfg.Clients * cfg.Surge
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			for r := 0; r < cfg.RequestsPerClient; r++ {
				region := regions[(id+r)%len(regions)]
				_, outcome, _, err := d.Serve(region, pages[rng.Intn(len(pages))])
				fl.record(outcome, err)
				time.Sleep(clientThink)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	commits := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(commitPace):
			ev := events[commits%len(events)]
			tx, err := d.MasterSite.RecordPartial(ev, ev.Participants[commits%len(ev.Participants)],
				fmt.Sprintf("flood.%d", commits))
			if err == nil {
				lastLSN[ev.Key] = tx.LSN
				commits++
			}
			d.AdviseLoad()
		}
	}
	res.Flood = fl.snapshot()
	shedBounded := res.Flood.Shed*10 <= res.Flood.Requests
	for _, cx := range d.Complexes() {
		for _, n := range cx.Cluster.Nodes() {
			if srv, ok := n.Server().(*httpserver.Server); ok {
				if srv.Stats().StaleAgeMax > cfg.StaleBudget {
					res.OverBudgetServers++
				}
			}
		}
	}
	fmt.Fprintf(cfg.Out, "phase flood: requests=%d errors=%d shed_bounded=%t over_budget_servers=%d\n",
		res.Flood.Requests, res.Flood.Errors, shedBounded, res.OverBudgetServers)

	// Phase 4 — recovery. Sweeper commits invalidate every page a straggling
	// render might have re-inserted mid-flood, so the stale scan below is
	// deterministic; then the plant must reconverge, re-advertise, and pass
	// the residual-SLO probe.
	for i, ev := range events {
		tx, err := d.MasterSite.RecordPartial(ev, ev.Participants[0], fmt.Sprintf("sweep.%d", i))
		if err != nil {
			return nil, fmt.Errorf("overload: sweep commit: %w", err)
		}
		lastLSN[ev.Key] = tx.LSN
	}
	res.Reconverged = d.WaitFresh(cfg.Timeout)
	loads = d.AdviseLoad()
	res.Restored = true
	for _, cx := range d.Complexes() {
		if loads[cx.Name] >= 1 || len(d.Router.LoadShedAddrs(cx.Name)) != 0 {
			res.Restored = false
		}
	}
	res.StalePages = stalePages(d, events, lastLSN)
	base := violations(d)
	probe := events[0]
	tx, err = d.MasterSite.RecordPartial(probe, probe.Participants[0], "probe")
	if err != nil {
		return nil, fmt.Errorf("overload: probe commit: %w", err)
	}
	lastLSN[probe.Key] = tx.LSN
	if !d.WaitFresh(cfg.Timeout) {
		res.Reconverged = false
	}
	res.ResidualViolations = violations(d) - base
	fmt.Fprintf(cfg.Out, "phase recover: reconverged=%t restored=%t stale_pages=%d residual_slo_violations=%d\n",
		res.Reconverged, res.Restored, res.StalePages, res.ResidualViolations)

	// Consistency audit over the reconverged plant: the flood degraded and
	// shed freely, but nothing it served — and nothing it left in any cache
	// — may diverge from the data unexplained.
	res.Audit, err = auditSweep(d, cfg.Out)
	if err != nil {
		return nil, err
	}

	res.OK = res.Baseline.Errors == 0 && res.Baseline.Shed == 0 &&
		res.HitAdmitted && res.StaleServed && res.Withdrawn && !res.BlackHoled &&
		res.Flood.Errors == 0 && shedBounded && res.OverBudgetServers == 0 &&
		res.Reconverged && res.Restored && res.StalePages == 0 && res.ResidualViolations == 0 &&
		res.Audit.OK
	fmt.Fprintf(cfg.Out, "overload: seed=%d ok=%t\n", res.Seed, res.OK)
	return res, nil
}

// floodPages is the flood's page mix: every event page (the hot set the
// commits keep invalidating) plus the news pages (a cold-but-cached set
// that must ride through the surge as pure hits).
func floodPages(events []*site.Event) []string {
	var pages []string
	for _, ev := range events {
		pages = append(pages, eventPage(ev))
	}
	for i := 0; i < spec().NewsStories; i++ {
		pages = append(pages, fmt.Sprintf("/en/news/n%03d", i))
	}
	return pages
}

// holdAllSlots occupies every render slot of every node and returns the
// releases. This is the deterministic stand-in for a resident flood: with
// all slots held, every render attempt system-wide must shed.
func holdAllSlots(d *deploy.Deployment) []func() {
	var releases []func()
	for _, cx := range d.Complexes() {
		for _, n := range cx.Cluster.Nodes() {
			srv, ok := n.Server().(*httpserver.Server)
			if !ok || srv.Limiter() == nil {
				continue
			}
			for {
				release, err := srv.Limiter().TryAcquire()
				if err != nil {
					break
				}
				releases = append(releases, release)
			}
		}
	}
	return releases
}

// phaseCounters accumulates outcomes concurrently; snapshot converts to the
// exported PhaseStats.
type phaseCounters struct {
	requests, hits, misses, stale, shed, errs atomic.Int64
}

func (p *phaseCounters) record(outcome httpserver.Outcome, err error) {
	p.requests.Add(1)
	switch {
	case outcome == httpserver.OutcomeShed:
		p.shed.Add(1)
	case err != nil:
		p.errs.Add(1)
	case outcome == httpserver.OutcomeStale:
		p.stale.Add(1)
	case outcome == httpserver.OutcomeMiss:
		p.misses.Add(1)
	case outcome == httpserver.OutcomeHit, outcome == httpserver.OutcomeStatic:
		p.hits.Add(1)
	default:
		p.errs.Add(1)
	}
}

func (p *phaseCounters) snapshot() PhaseStats {
	return PhaseStats{
		Requests: p.requests.Load(),
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Stale:    p.stale.Load(),
		Shed:     p.shed.Load(),
		Errors:   p.errs.Load(),
	}
}

// flood runs clients concurrent clients, each issuing n requests drawn from
// pages with a per-client seeded RNG, and returns the outcome counts.
func flood(d *deploy.Deployment, clients, n int, pages []string, regions []routing.Region, seed int64) PhaseStats {
	var wg sync.WaitGroup
	var pc phaseCounters
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)))
			for r := 0; r < n; r++ {
				region := regions[(id+r)%len(regions)]
				_, outcome, _, err := d.Serve(region, pages[rng.Intn(len(pages))])
				pc.record(outcome, err)
				time.Sleep(clientThink)
			}
		}(i)
	}
	wg.Wait()
	return pc.snapshot()
}
