// Package chaos runs fault-injection tournaments against a live deployment
// and checks the paper's two availability invariants under every fault the
// pipeline can suffer:
//
//  1. No committed transaction is ever dropped. Whatever crashes — a
//     trigger monitor mid-batch, a replication link, a serving node — once
//     the fault clears, every complex's replica and monitor reach the
//     master's LSN.
//  2. Degradation is a miss, never a stale hit. A cache may lose a page
//     (push downgraded to invalidation, node death, render fault) but may
//     never hold a page older than the last committed update to it.
//
// A tournament is a sequence of rounds, each arming one fault kind,
// committing transactions and serving traffic through the fault window,
// then clearing the fault and asserting both invariants plus freshness-SLO
// convergence (no violations once the window is closed).
//
// Determinism: fault decisions come from a seeded fault.Injector, so the
// faults themselves reproduce exactly. Timing-dependent quantities (how
// many retries a push took, which batch a crash landed on) vary across
// runs; the tournament therefore reports only invariant quantities —
// committed counts, convergence, losses, staleness, residual violations —
// and its output is byte-for-byte identical across invocations with the
// same seed as long as the invariants hold.
package chaos

import (
	"context"
	"fmt"
	"io"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/deploy"
	"dupserve/internal/fault"
	"dupserve/internal/obs"
	"dupserve/internal/routing"
	"dupserve/internal/site"
)

// Config describes a tournament.
type Config struct {
	// Seed drives every injected fault decision.
	Seed int64
	// Rounds is the number of fault rounds (default 5 — one per kind).
	Rounds int
	// TxPerRound is how many transactions commit inside each fault window
	// (default 8).
	TxPerRound int
	// SLO is the freshness objective asserted after each window closes
	// (default 60s, the paper's guarantee).
	SLO time.Duration
	// Timeout bounds each convergence wait (default 30s).
	Timeout time.Duration
	// Out receives the tournament report (default: discard).
	Out io.Writer
}

// RoundReport is the invariant outcome of one fault round.
type RoundReport struct {
	Round     int
	Kind      fault.Kind
	Committed int
	// Converged reports whether every complex reached full freshness after
	// the fault cleared.
	Converged bool
	// Lost is the total LSN shortfall across complexes after convergence —
	// committed transactions that never propagated. The invariant is 0.
	Lost int64
	// Stale counts cached pages older than the last committed update to
	// them, across every cache of every complex. The invariant is 0.
	Stale int
	// ResidualViolations counts freshness-SLO violations recorded after
	// the fault window closed. The invariant is 0.
	ResidualViolations int64
}

// Result is the tournament outcome.
type Result struct {
	Seed               int64
	Rounds             []RoundReport
	LostTransactions   int64
	StalePages         int
	ResidualViolations int64
	MonitorRestarts    int64
	// Injected counts faults fired per kind. Timing-dependent (batching
	// decides which identities are evaluated), so it appears in the Result
	// for assertions but never in the deterministic report.
	Injected [fault.NumKinds]int64
	// Audit is the end-of-tournament consistency sweep: with all faults
	// cleared and the plant converged, every page of every complex must be
	// provably coherent against a shadow render.
	Audit AuditSummary
	// Dumps are the flight-recorder black boxes captured across every
	// complex during the tournament. How many there are — and which batch a
	// crash landed on — is timing-dependent, so dumps appear in the Result
	// for inspection but never in the deterministic report (see RunFlight
	// for the sequenced, byte-reproducible variant).
	Dumps []obs.Dump
	// OK is true when every round converged with zero losses, zero stale
	// pages, and zero residual SLO violations, and the audit sweep found
	// the plant coherent.
	OK bool
}

// spec is the tournament's compact site: enough pages and events for real
// fan-out, small enough that rounds take milliseconds.
func spec() site.Spec {
	return site.Spec{
		Sports: 2, EventsPerSport: 2, Athletes: 20, Countries: 5,
		NewsStories: 3, Days: 2, EventsPerAthlete: 1, Languages: []string{"en"},
	}
}

// topology is the tournament plant: master -> tokyo and schaumburg, with
// columbus chained from schaumburg so partitions and crashes are exercised
// on both direct and chained links.
func topology() []deploy.ComplexSpec {
	dist := func(primary routing.Region) map[routing.Region]int {
		m := map[routing.Region]int{
			routing.RegionJapan: 50, routing.RegionAsia: 50, routing.RegionUS: 50,
			routing.RegionEurope: 50, routing.RegionOther: 50,
		}
		m[primary] = 10
		return m
	}
	return []deploy.ComplexSpec{
		{Name: "tokyo", Frames: 1, NodesPerFrame: 2, ReplicationDelay: time.Millisecond,
			Distance: dist(routing.RegionJapan)},
		{Name: "schaumburg", Frames: 1, NodesPerFrame: 2, ReplicationDelay: time.Millisecond,
			Distance: dist(routing.RegionUS)},
		{Name: "columbus", Frames: 1, NodesPerFrame: 2, ReplicationDelay: time.Millisecond,
			ChainFrom: "schaumburg", Distance: dist(routing.RegionEurope)},
	}
}

// Run executes one tournament.
func Run(cfg Config) (*Result, error) {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 5
	}
	if cfg.TxPerRound <= 0 {
		cfg.TxPerRound = 8
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

	inj := fault.New(fault.Config{Seed: cfg.Seed})
	d, err := deploy.New(deploy.Config{
		Spec:      spec(),
		Complexes: topology(),
		SLO:       cfg.SLO,
	},
		deploy.WithFaults(inj),
		deploy.WithAudit(),
	)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := d.Start(ctx); err != nil {
		return nil, err
	}
	defer func() { _ = d.Shutdown(ctx) }()
	if err := d.Prime(cfg.Timeout); err != nil {
		return nil, err
	}

	res := &Result{Seed: cfg.Seed, OK: true}
	events := d.MasterSite.Events
	lastLSN := make(map[string]int64) // event key -> LSN of its last update
	regions := []routing.Region{routing.RegionJapan, routing.RegionUS, routing.RegionEurope}

	fmt.Fprintf(cfg.Out, "chaos tournament: seed=%d rounds=%d tx/round=%d slo=%s\n",
		cfg.Seed, cfg.Rounds, cfg.TxPerRound, cfg.SLO)

	for r := 0; r < cfg.Rounds; r++ {
		kind := fault.Kinds()[r%int(fault.NumKinds)]
		clear := arm(d, inj, kind, r)

		committed := 0
		for i := 0; i < cfg.TxPerRound; i++ {
			ev := events[(r+i)%len(events)]
			tx, err := d.MasterSite.RecordPartial(ev,
				ev.Participants[i%len(ev.Participants)], fmt.Sprintf("%d.%d", r, i))
			if err != nil {
				return nil, fmt.Errorf("chaos: round %d commit %d: %w", r, i, err)
			}
			lastLSN[ev.Key] = tx.LSN
			committed++
			// Traffic through the fault window: outcomes vary with timing
			// (that is the point of degradation), so they are exercised but
			// not reported.
			for _, region := range regions {
				_, _, _, _ = d.Serve(region, eventPage(ev))
			}
		}

		// Let the pipeline propagate while the fault is live — commits are
		// asynchronous, so clearing immediately would close the window before
		// a single render or push had run under it. A partition blocks
		// propagation by design; it is the one fault cleared before waiting.
		if kind != fault.KindReplication {
			d.WaitFresh(cfg.Timeout)
		}
		clear()
		converged := d.WaitFresh(cfg.Timeout)
		lost := lostTransactions(d)
		stale := stalePages(d, events, lastLSN)

		// Residual-SLO probe: with the pipeline healthy again, a fresh
		// transaction must propagate without a single new violation.
		base := violations(d)
		probeEv := events[r%len(events)]
		tx, err := d.MasterSite.RecordPartial(probeEv,
			probeEv.Participants[0], fmt.Sprintf("probe.%d", r))
		if err != nil {
			return nil, fmt.Errorf("chaos: round %d probe: %w", r, err)
		}
		lastLSN[probeEv.Key] = tx.LSN
		if !d.WaitFresh(cfg.Timeout) {
			converged = false
		}
		residual := violations(d) - base

		rep := RoundReport{
			Round: r, Kind: kind, Committed: committed,
			Converged: converged, Lost: lost, Stale: stale,
			ResidualViolations: residual,
		}
		res.Rounds = append(res.Rounds, rep)
		res.LostTransactions += lost
		res.StalePages += stale
		res.ResidualViolations += residual
		if !converged || lost != 0 || stale != 0 || residual != 0 {
			res.OK = false
		}
		fmt.Fprintf(cfg.Out,
			"round %d fault=%-13s committed=%d converged=%t lost=%d stale=%d residual_slo_violations=%d\n",
			rep.Round, rep.Kind, rep.Committed, rep.Converged, rep.Lost, rep.Stale,
			rep.ResidualViolations)
	}

	res.MonitorRestarts = d.MonitorRestarts()
	for _, k := range fault.Kinds() {
		res.Injected[k] = inj.Injected(k)
	}
	for _, cx := range d.Complexes() {
		if cx.Obs != nil {
			res.Dumps = append(res.Dumps, cx.Obs.Recorder.Dumps()...)
		}
	}

	// The consistency audit closes the tournament: with every fault cleared
	// and the plant converged, each complex's auditor shadow-renders the
	// full page set and verifies that what the nodes serve is exactly what
	// the replicas say — and that the dependence graph declared every read.
	res.Audit, err = auditSweep(d, cfg.Out)
	if err != nil {
		return nil, err
	}
	if !res.Audit.OK {
		res.OK = false
	}

	fmt.Fprintf(cfg.Out,
		"chaos: seed=%d rounds=%d lost_transactions=%d stale_pages=%d residual_slo_violations=%d ok=%t\n",
		res.Seed, len(res.Rounds), res.LostTransactions, res.StalePages,
		res.ResidualViolations, res.OK)
	return res, nil
}

// arm turns one fault kind on and returns the closure that clears it.
func arm(d *deploy.Deployment, inj *fault.Injector, kind fault.Kind, round int) func() {
	switch kind {
	case fault.KindReplication:
		// Partition tokyo's inbound link for the round; commits queue on
		// the master's feed and ship after the heal.
		cx, _ := d.Complex("tokyo")
		inj.SetPartition(cx.Link, true)
		return func() { inj.SetPartition(cx.Link, false) }
	case fault.KindMonitorCrash:
		inj.SetRate(fault.KindMonitorCrash, 0.4)
		return func() { inj.ClearRates() }
	case fault.KindPush:
		inj.SetRate(fault.KindPush, 0.35)
		return func() { inj.ClearRates() }
	case fault.KindRender:
		inj.SetRate(fault.KindRender, 0.35)
		return func() { inj.ClearRates() }
	case fault.KindNode:
		cx, _ := d.Complex("tokyo")
		nodes := cx.Cluster.Nodes()
		n := nodes[round%len(nodes)]
		n.Fail()
		cx.Cluster.Advise()
		inj.CountInjected(fault.KindNode, 1)
		return func() {
			n.Recover()
			cx.Cluster.Advise()
		}
	default:
		return func() {}
	}
}

// eventPage is the canonical page for an event in the tournament's
// single-language site.
func eventPage(ev *site.Event) string {
	return "/en/sports/" + ev.Sport + "/" + ev.Key
}

// lostTransactions sums, across complexes, how far replica and monitor LSNs
// fall short of the master — committed transactions that never arrived or
// never propagated.
func lostTransactions(d *deploy.Deployment) int64 {
	target := d.Master.LSN()
	var lost int64
	for _, cx := range d.Complexes() {
		if short := target - cx.Replica.LSN(); short > 0 {
			lost += short
		}
		if mon := cx.Monitor(); mon != nil {
			if short := target - mon.LastLSN(); short > 0 {
				lost += short
			}
		}
	}
	return lost
}

// stalePages scans every cache of every complex for event pages older than
// the event's last committed update. Absence is fine (a downgraded push is
// a miss); an old version is the invariant violation.
func stalePages(d *deploy.Deployment, events []*site.Event, lastLSN map[string]int64) int {
	stale := 0
	for _, cx := range d.Complexes() {
		for _, c := range cx.Cluster.Caches.Members() {
			for _, ev := range events {
				want, ok := lastLSN[ev.Key]
				if !ok {
					continue
				}
				obj, cached := c.Peek(cache.Key(eventPage(ev)))
				if cached && obj.Version < want {
					stale++
				}
			}
		}
	}
	return stale
}

// violations sums freshness-SLO violations across every complex's tracer.
func violations(d *deploy.Deployment) int64 {
	var v int64
	for _, cx := range d.Complexes() {
		v += cx.Obs.Tracer.Violations()
	}
	return v
}
