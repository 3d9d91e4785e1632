package chaos

import (
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"context"

	"dupserve/internal/cache"
	"dupserve/internal/deploy"
	"dupserve/internal/fault"
	"dupserve/internal/obs"
	"dupserve/internal/overload"
	"dupserve/internal/routing"
)

// FlightConfig describes a flight-recorder scenario run.
type FlightConfig struct {
	// Seed labels the run and drives the one injected fault decision.
	Seed int64
	// Timeout bounds each convergence wait (default 30s).
	Timeout time.Duration
	// Out receives the report (default: discard).
	Out io.Writer
}

// FlightResult is the scenario outcome.
type FlightResult struct {
	Seed int64
	// Dumps are the black boxes captured, oldest first.
	Dumps []obs.Dump
	// Kinds are the distinct trigger kinds among the dumps, sorted.
	Kinds []string
	// Canonical is the newline-joined canonical (time-free) projection of
	// every dump — the byte-reproducibility oracle: two runs with the same
	// seed produce identical Canonical bytes.
	Canonical []byte
	// OK is true when every anomaly kind produced at least one dump.
	OK bool
}

// flightTriggers is every anomaly kind the scenario provokes, in the order
// it provokes them.
var flightTriggers = []string{
	obs.TriggerSLOViolation,
	obs.TriggerCrash,
	obs.TriggerShedStart,
	obs.TriggerIncoherent,
}

// RunFlight drives a single-complex deployment through one instance of each
// anomaly the flight recorder triggers on — a freshness-SLO violation, a
// trigger-monitor crash, a CoDel shed transition, and an audit-incoherent
// page — and collects the black-box dumps.
//
// Where Run embraces timing variance (that is what a tournament is for),
// RunFlight sequences every step: one complex, one transaction per phase,
// convergence waits between phases, a fault budget of exactly one crash,
// and a journal armed only after the plant has converged. Under that
// regime the canonical projection of every dump — spans with their
// outcomes, nodes, observed LSNs and database reads; propagation traces
// with their IDs and LSNs; journal events with their attributes — is
// byte-for-byte identical across runs with the same seed.
func RunFlight(cfg FlightConfig) (*FlightResult, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}

	inj := fault.New(fault.Config{Seed: cfg.Seed})
	d, err := deploy.New(deploy.Config{
		Spec: spec(),
		Complexes: []deploy.ComplexSpec{
			{Name: "tokyo", Frames: 1, NodesPerFrame: 2, ReplicationDelay: time.Millisecond,
				Distance: map[routing.Region]int{
					routing.RegionJapan: 10, routing.RegionAsia: 10, routing.RegionUS: 10,
					routing.RegionEurope: 10, routing.RegionOther: 10,
				}},
		},
		// A 1ns SLO makes every propagation a violation, so the SLO phase
		// needs exactly one commit to trip the recorder.
		SLO: time.Nanosecond,
	},
		deploy.WithFaults(inj),
		deploy.WithAudit(),
		// One render slot with a 1ns CoDel target: a single queued waiter
		// is a standing queue, so the shed phase can flip the controller
		// with two requests.
		deploy.WithOverload(overload.Config{
			MaxConcurrent: 1, MaxQueue: 4,
			Target: time.Nanosecond, Interval: time.Nanosecond,
		}, 0),
	)
	if err != nil {
		return nil, err
	}
	cx := d.Complexes()[0]
	// Startup timing (how much of the seed data the first monitor replays,
	// when replication lands) is racy; keep the journal disarmed until the
	// plant has converged so dumps only ever contain sequenced events.
	cx.Obs.SetArmed(false)

	ctx := context.Background()
	if err := d.Start(ctx); err != nil {
		return nil, err
	}
	defer func() { _ = d.Shutdown(ctx) }()
	if err := d.Prime(cfg.Timeout); err != nil {
		return nil, err
	}
	cx.Obs.SetArmed(true)

	events := d.MasterSite.Events
	if len(events) < 4 {
		return nil, fmt.Errorf("flight: need 4 events, spec built %d", len(events))
	}
	fmt.Fprintf(cfg.Out, "flight recorder: seed=%d complex=%s\n", cfg.Seed, cx.Name)

	// Phase 1 — hits: primed pages served through the router, so the span
	// ring carries hit spans with their observed LSNs before any anomaly.
	for _, ev := range events[:2] {
		if _, _, _, err := d.Serve(routing.RegionJapan, eventPage(ev)); err != nil {
			return nil, fmt.Errorf("flight: hit serve: %w", err)
		}
	}

	// Phase 2 — miss: invalidate one page everywhere and serve it, so the
	// ring also carries a render span with a database-read count.
	missPage := eventPage(events[2])
	cx.Cluster.Caches.ApplyInvalidate(cache.Key(missPage))
	if _, _, _, err := d.Serve(routing.RegionJapan, missPage); err != nil {
		return nil, fmt.Errorf("flight: miss serve: %w", err)
	}

	// Phase 3 — freshness-SLO violation: one commit, one propagation, one
	// violation, one dump.
	if _, err := d.MasterSite.RecordPartial(events[0],
		events[0].Participants[0], "flight.slo"); err != nil {
		return nil, fmt.Errorf("flight: slo commit: %w", err)
	}
	if !d.WaitFresh(cfg.Timeout) {
		return nil, fmt.Errorf("flight: slo phase did not converge")
	}
	if err := waitJournal(cx.Obs, "trace", "slo_violation", 1, cfg.Timeout); err != nil {
		return nil, err
	}

	// Phase 4 — monitor crash: rate 1 with a budget of 1 crashes the
	// monitor on exactly the next batch; supervision restarts it and the
	// replacement replays the dropped transaction from the retained log.
	inj.SetRate(fault.KindMonitorCrash, 1)
	inj.SetBudget(fault.KindMonitorCrash, 1)
	if _, err := d.MasterSite.RecordPartial(events[1],
		events[1].Participants[0], "flight.crash"); err != nil {
		return nil, fmt.Errorf("flight: crash commit: %w", err)
	}
	deadline := time.Now().Add(cfg.Timeout)
	for cx.MonitorRestarts() < 1 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("flight: monitor never crashed")
		}
		time.Sleep(time.Millisecond)
	}
	inj.ClearRates()
	if !d.WaitFresh(cfg.Timeout) {
		return nil, fmt.Errorf("flight: crash phase did not converge")
	}
	// The replay event lands on the monitor goroutine just after its
	// propagation; wait for it so the journal order stays sequenced.
	if err := waitJournal(cx.Obs, "trigger", "replay", 1, cfg.Timeout); err != nil {
		return nil, err
	}

	// Phase 5 — shed transition: occupy the single render slot, queue one
	// waiter, and release the slot. The waiter's queue delay stands above
	// the 1ns target for well over the 1ns interval, so its admission
	// flips the CoDel controller into shedding (shed_start → dump); its
	// release drains the limiter and flips it back (shed_stop).
	node := cx.Cluster.Nodes()[0]
	lim := node.Server().(interface{ Limiter() *overload.Limiter }).Limiter()
	hold, err := lim.TryAcquire()
	if err != nil {
		return nil, fmt.Errorf("flight: shed phase: slot not free: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		rel, err := lim.Acquire()
		if err != nil {
			done <- err
			return
		}
		rel()
		done <- nil
	}()
	for lim.Waiting() < 1 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("flight: waiter never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	hold()
	if err := <-done; err != nil {
		return nil, fmt.Errorf("flight: queued waiter shed: %w", err)
	}

	// Phase 6 — incoherent page: poison one node's cache with a corrupted
	// body stamped at the replica's current LSN (so no committed change
	// can explain the divergence), serve it from that node so the audit
	// tap samples it, and sweep. The auditor classifies it incoherent and
	// the journal event trips the recorder.
	poisonPage := eventPage(events[3])
	var poisoned *cache.Cache
	for _, c := range cx.Cluster.Caches.Members() {
		if c.Name() == node.Name() {
			poisoned = c
		}
	}
	if poisoned == nil {
		return nil, fmt.Errorf("flight: no cache for node %s", node.Name())
	}
	orig, ok := poisoned.Peek(cache.Key(poisonPage))
	if !ok {
		return nil, fmt.Errorf("flight: %s not cached on %s", poisonPage, node.Name())
	}
	poisoned.Put(&cache.Object{
		Key:         orig.Key,
		Value:       append([]byte("poisoned:"), orig.Value...),
		ContentType: orig.ContentType,
		Version:     cx.Replica.LSN(),
	})
	if _, _, err := node.Serve(poisonPage); err != nil {
		return nil, fmt.Errorf("flight: poisoned serve: %w", err)
	}
	if _, err := cx.Auditor.Sweep(); err != nil {
		return nil, fmt.Errorf("flight: audit sweep: %w", err)
	}
	poisoned.Put(orig) // restore

	rec := cx.Obs.Recorder
	res := &FlightResult{
		Seed:  cfg.Seed,
		Dumps: rec.Dumps(),
		Kinds: rec.Kinds(),
		OK:    true,
	}
	for _, want := range flightTriggers {
		found := false
		for _, k := range res.Kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			res.OK = false
		}
	}
	for _, dump := range res.Dumps {
		res.Canonical = append(res.Canonical, dump.Canonical()...)
		res.Canonical = append(res.Canonical, '\n')
	}

	for i, dump := range res.Dumps {
		fmt.Fprintf(cfg.Out, "dump %d kind=%-20s spans=%d traces=%d events=%d\n",
			i, dump.Kind, len(dump.Spans), len(dump.Traces), len(dump.Events))
	}
	fmt.Fprintf(cfg.Out, "flight: seed=%d dumps=%d kinds=%d canonical_sha256=%x ok=%t\n",
		res.Seed, len(res.Dumps), len(res.Kinds), sha256.Sum256(res.Canonical), res.OK)
	return res, nil
}

// waitJournal blocks until the complex's journal holds at least n events of
// scope/kind, bounding the wait: the phases that emit events on pipeline
// goroutines (SLO violations, replay) are sequenced against the next phase
// through it.
func waitJournal(suite *obs.Suite, scope, kind string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		count := 0
		for _, e := range suite.Journal.Recent(0) {
			if e.Scope == scope && e.Kind == kind {
				count++
			}
		}
		if count >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("flight: journal never recorded %s/%s", scope, kind)
		}
		time.Sleep(time.Millisecond)
	}
}
