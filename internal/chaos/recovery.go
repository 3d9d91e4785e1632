package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/deploy"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
	"dupserve/internal/obs"
	"dupserve/internal/recovery"
	"dupserve/internal/routing"
)

// RecoveryConfig describes a node-recovery scenario run.
type RecoveryConfig struct {
	// Seed labels the run and picks the victim node.
	Seed int64
	// Timeout bounds each convergence wait (default 30s).
	Timeout time.Duration
	// Out receives the report (default: discard).
	Out io.Writer
}

// FlapCycle is one fail/recover cycle of the flap storm.
type FlapCycle struct {
	// Quarantine is the readmission quarantine the flap earned (good
	// observations ignored before readmission may begin).
	Quarantine int
	// Sweeps is how many advisor sweeps the node needed to regain full
	// weight — quarantine, then the readmit threshold, then the slow-start
	// ramp.
	Sweeps int
}

// RecoveryResult is the scenario outcome.
type RecoveryResult struct {
	Seed   int64
	Victim string
	Pages  int
	// CommitsWhileDown is how many transactions committed while the victim
	// was dead (its cache missed their pushes; the warmup must cover them).
	CommitsWhileDown int
	// RejoinSweeps is how many advisor sweeps the first (non-flap) rejoin
	// took to reach full weight.
	RejoinSweeps int
	// Cycles are the flap-storm rejoins; quarantine and sweeps must grow
	// monotonically (exponential flap damping).
	Cycles []FlapCycle
	// PostRejoinMisses counts cache misses serving the full page set
	// directly from the readmitted victim. The warmup invariant is 0.
	PostRejoinMisses int
	// FloorViolations counts pages the readmitted victim served older than
	// its own pre-failure copy. The LSN-floor invariant is 0.
	FloorViolations int
	// FlapDumps counts flight-recorder captures triggered by flap damping
	// (one per flap).
	FlapDumps int
	// Dumps are every black box the recorder captured.
	Dumps []obs.Dump
	// Audit is the end-of-scenario consistency sweep.
	Audit AuditSummary
	// Canonical is the deterministic projection of the run: the report
	// lines plus every dump's canonical bytes. Two runs with the same seed
	// produce identical Canonical bytes.
	Canonical []byte
	// OK: zero misses, zero floor violations, monotonically growing
	// quarantines, one dump per flap, and a coherent audit.
	OK bool
}

// recoveryPolicy is the scenario's probation policy: single-observation
// eviction (the advisor saw the node die), two-sweep readmission hysteresis,
// a quarter-weight slow start doubling per sweep, and flap damping from two
// quarantine sweeps doubling up to eight.
func recoveryPolicy() recovery.Policy {
	return recovery.Policy{Warm: true, HealthPolicy: dispatch.HealthPolicy{
		FailThreshold:    1,
		ReadmitThreshold: 2,
		RampStart:        0.25,
		RampFactor:       2,
		FlapWindow:       4,
		QuarantineBase:   2,
		QuarantineMax:    8,
	}}
}

// recoveryComplexes is the scenario plant: one complex, three nodes, so a
// dead node always has two healthy peers to restore from.
func recoveryComplexes() []deploy.ComplexSpec {
	return []deploy.ComplexSpec{
		{Name: "tokyo", Frames: 1, NodesPerFrame: 3, ReplicationDelay: time.Millisecond,
			Distance: map[routing.Region]int{
				routing.RegionJapan: 10, routing.RegionAsia: 10, routing.RegionUS: 10,
				routing.RegionEurope: 10, routing.RegionOther: 10,
			}},
	}
}

// RunRecovery drives one node of a single-complex deployment through the
// full recovery protocol: a kill (instant eviction, cache detached), a
// window of commits the dead node misses, a warmup-gated rejoin (peer-copy
// restore to the pinned LSN floor, two-sweep readmission, slow-start ramp to
// full weight), a direct serve of the whole page set off the readmitted node
// asserting zero misses and the LSN-floor invariant, and a three-cycle flap
// storm asserting exponentially growing quarantines with one flight-recorder
// dump per flap.
//
// Every step is sequenced — commits one at a time behind convergence waits,
// advisor sweeps counted, the journal armed only after the plant has primed
// — so the canonical projection of the report and of every dump is
// byte-for-byte identical across runs with the same seed.
func RunRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}

	d, err := deploy.New(deploy.Config{
		Spec:      spec(),
		Complexes: recoveryComplexes(),
	},
		deploy.WithRecovery(recoveryPolicy()),
		deploy.WithAudit(),
	)
	if err != nil {
		return nil, err
	}
	cx := d.Complexes()[0]
	// Startup timing is racy; keep the journal disarmed until the plant has
	// converged so dumps only ever contain sequenced events.
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

	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes := cx.Cluster.Nodes()
	victim := nodes[rng.Intn(len(nodes))]
	vcache, ok := cx.Cluster.Caches.Get(victim.Name())
	if !ok {
		return nil, fmt.Errorf("recovery: no cache for node %s", victim.Name())
	}
	pages := cx.Site.Pages()
	res := &RecoveryResult{Seed: cfg.Seed, Victim: victim.Name(), Pages: len(pages)}
	fmt.Fprintf(cfg.Out, "recovery scenario: seed=%d victim=%s pages=%d\n",
		cfg.Seed, victim.Name(), len(pages))

	// The LSN floor: the victim's cached versions the instant before it
	// dies. After readmission it must never serve anything older.
	pre := make(map[string]int64, len(pages))
	for _, p := range pages {
		if obj, ok := vcache.Peek(cache.Key(p)); ok {
			pre[p] = obj.Version
		}
	}

	// Phase 1 — kill: the cache clears and detaches, the advisor sweep
	// evicts the node (node/down in the journal).
	victim.Fail()
	cx.Cluster.Advise()

	// Phase 2 — the window the dead node misses: sequenced commits, each
	// fully propagated to the survivors before the next, with traffic
	// confirming the complex serves throughout.
	events := d.MasterSite.Events
	for i := 0; i < 4; i++ {
		ev := events[i%len(events)]
		if _, err := d.MasterSite.RecordPartial(ev,
			ev.Participants[i%len(ev.Participants)], fmt.Sprintf("recovery.%d", i)); err != nil {
			return nil, fmt.Errorf("recovery: commit %d: %w", i, err)
		}
		if !d.WaitFresh(cfg.Timeout) {
			return nil, fmt.Errorf("recovery: commit %d did not converge", i)
		}
		res.CommitsWhileDown++
		for _, ev2 := range events[:2] {
			if _, _, _, err := d.Serve(routing.RegionJapan, eventPage(ev2)); err != nil {
				return nil, fmt.Errorf("recovery: serve while down: %w", err)
			}
		}
	}

	// Phase 3 — warmup-gated rejoin: Recover enters warming, the warmer
	// restores the page set from the two healthy peers (node/warmup), and
	// counted advisor sweeps walk the readmission hysteresis and the
	// slow-start ramp back to full weight (node/readmitted).
	victim.Recover()
	if !victim.WaitReady(cfg.Timeout) {
		return nil, fmt.Errorf("recovery: victim never became ready")
	}
	res.RejoinSweeps, err = sweepsToUp(cx, victim.Name())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Out, "rejoin: commits_missed=%d sweeps_to_full_weight=%d\n",
		res.CommitsWhileDown, res.RejoinSweeps)

	// Phase 4 — the warmup invariants, asserted off the victim directly:
	// every page a hit (no post-rejoin miss storm) and no page older than
	// the pre-failure floor.
	for _, p := range pages {
		obj, outcome, err := victim.Serve(p)
		if err != nil {
			return nil, fmt.Errorf("recovery: post-rejoin serve %s: %w", p, err)
		}
		if outcome != httpserver.OutcomeHit {
			res.PostRejoinMisses++
		}
		if obj != nil && obj.Version < pre[p] {
			res.FloorViolations++
		}
	}
	fmt.Fprintf(cfg.Out, "post_rejoin: misses=%d floor_violations=%d\n",
		res.PostRejoinMisses, res.FloorViolations)

	// Phase 5 — flap storm: three fail/recover cycles. Each re-eviction
	// inside the flap window counts as a flap, doubles the quarantine
	// (capped), journals node/flap_quarantine, and trips the flight
	// recorder; readmission takes exponentially more sweeps each cycle.
	for c := 0; c < 3; c++ {
		victim.Fail()
		cx.Cluster.Advise()
		cycle := FlapCycle{Quarantine: victimQuarantine(cx, victim.Name())}
		victim.Recover()
		if !victim.WaitReady(cfg.Timeout) {
			return nil, fmt.Errorf("recovery: flap cycle %d never became ready", c)
		}
		cycle.Sweeps, err = sweepsToUp(cx, victim.Name())
		if err != nil {
			return nil, fmt.Errorf("recovery: flap cycle %d: %w", c, err)
		}
		res.Cycles = append(res.Cycles, cycle)
		fmt.Fprintf(cfg.Out, "flap cycle=%d quarantine=%d sweeps_to_full_weight=%d\n",
			c, cycle.Quarantine, cycle.Sweeps)
	}

	res.Dumps = cx.Obs.Recorder.Dumps()
	for _, dump := range res.Dumps {
		if dump.Kind == obs.TriggerFlapDamping {
			res.FlapDumps++
		}
	}

	// The consistency audit closes the scenario: with the victim back at
	// full weight, every page of the complex must be provably coherent.
	res.Audit, err = auditSweep(d, cfg.Out)
	if err != nil {
		return nil, err
	}

	res.OK = res.PostRejoinMisses == 0 && res.FloorViolations == 0 &&
		res.FlapDumps == len(res.Cycles) && res.Audit.OK
	// Exponential flap damping: each cycle's quarantine and sweep count must
	// strictly exceed the previous cycle's (three cycles stay below the cap,
	// so no plateau is expected).
	prevQ, prevS := 0, res.RejoinSweeps
	for _, cyc := range res.Cycles {
		if cyc.Quarantine <= prevQ || cyc.Sweeps <= prevS {
			res.OK = false
		}
		prevQ, prevS = cyc.Quarantine, cyc.Sweeps
	}

	res.Canonical = canonicalRecovery(res)
	fmt.Fprintf(cfg.Out,
		"recovery: seed=%d rejoin_sweeps=%d flaps=%d flap_dumps=%d misses=%d floor_violations=%d ok=%t\n",
		res.Seed, res.RejoinSweeps, len(res.Cycles), res.FlapDumps,
		res.PostRejoinMisses, res.FloorViolations, res.OK)
	return res, nil
}

// canonicalRecovery renders the deterministic projection of the run: the
// invariant report fields, then every dump's canonical (time-free) bytes.
func canonicalRecovery(res *RecoveryResult) []byte {
	var out []byte
	out = fmt.Appendf(out, "recovery seed=%d victim=%s pages=%d commits_while_down=%d\n",
		res.Seed, res.Victim, res.Pages, res.CommitsWhileDown)
	out = fmt.Appendf(out, "rejoin sweeps=%d\n", res.RejoinSweeps)
	for i, cyc := range res.Cycles {
		out = fmt.Appendf(out, "flap cycle=%d quarantine=%d sweeps=%d\n",
			i, cyc.Quarantine, cyc.Sweeps)
	}
	out = fmt.Appendf(out, "post_rejoin misses=%d floor_violations=%d flap_dumps=%d\n",
		res.PostRejoinMisses, res.FloorViolations, res.FlapDumps)
	out = fmt.Appendf(out, "audit pages=%d probes=%d coherent=%d incoherent=%d ok=%t\n",
		res.Audit.Pages, res.Audit.Probes, res.Audit.Coherent, res.Audit.Incoherent, res.Audit.OK)
	for _, dump := range res.Dumps {
		out = append(out, dump.Canonical()...)
		out = append(out, '\n')
	}
	return out
}

// sweepsToUp runs advisor sweeps until the named member regains full weight
// (StateUp), returning how many it took.
func sweepsToUp(cx *deploy.Complex, name string) (int, error) {
	const maxSweeps = 64
	for i := 1; i <= maxSweeps; i++ {
		cx.Cluster.Advise()
		if st, ok := cx.Cluster.Dispatcher.MemberState(name); ok && st == dispatch.StateUp {
			return i, nil
		}
	}
	return 0, fmt.Errorf("recovery: %s not at full weight after %d sweeps", name, maxSweeps)
}

// victimQuarantine reads the named member's pending quarantine.
func victimQuarantine(cx *deploy.Complex, name string) int {
	for _, n := range cx.Cluster.Dispatcher.Stats().Nodes {
		if n.Name == name {
			return n.Quarantine
		}
	}
	return 0
}

// RecoveryBenchConfig describes a readmission benchmark run.
type RecoveryBenchConfig struct {
	// Seed labels the run.
	Seed int64
	// Commits is how many transactions land while the victim is down
	// (default 8).
	Commits int
	// Timeout bounds each convergence wait (default 30s).
	Timeout time.Duration
}

// RecoveryBenchMode measures one readmission strategy.
type RecoveryBenchMode struct {
	// Mode is "warm" (cache rebuilt to the pinned LSN floor before
	// readmission) or "cold" (the node rejoins with an empty cache).
	Mode string `json:"mode"`
	// MTTRMillis is the wall clock from Recover to full dispatcher weight.
	MTTRMillis float64 `json:"mttr_ms"`
	// PagesFromPeer/PagesRendered decompose the warmup work (zero cold).
	PagesFromPeer int64 `json:"pages_from_peer"`
	PagesRendered int64 `json:"pages_rendered"`
	// PostRejoinHits/Misses classify serving the full page set directly
	// from the readmitted node — the miss storm warmup exists to prevent.
	PostRejoinHits   int `json:"post_rejoin_hits"`
	PostRejoinMisses int `json:"post_rejoin_misses"`
}

// RecoveryBenchReport is the serialized form of a BenchRecovery run.
type RecoveryBenchReport struct {
	Scenario         string              `json:"scenario"`
	Seed             int64               `json:"seed"`
	Pages            int                 `json:"pages"`
	CommitsWhileDown int                 `json:"commits_while_down"`
	Modes            []RecoveryBenchMode `json:"modes"`
	// MissReductionPct is how much of the cold-readmission miss storm the
	// warmup eliminated (100 = every post-rejoin request a hit).
	MissReductionPct float64 `json:"miss_reduction_pct"`
}

// BenchRecovery measures warm against cold readmission on identical plants:
// same topology, same failure, same commit window, the only difference
// whether the rejoining node warms its cache to the pinned LSN floor before
// taking traffic. MTTR is a wall-clock measurement — unlike RunRecovery's
// canonical report it is not expected to reproduce byte-for-byte — while the
// hit/miss decomposition is exact: a cold cache misses the entire page set,
// a warm one misses nothing.
func BenchRecovery(cfg RecoveryBenchConfig) (*RecoveryBenchReport, error) {
	if cfg.Commits <= 0 {
		cfg.Commits = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	rep := &RecoveryBenchReport{
		Scenario:         "recovery",
		Seed:             cfg.Seed,
		CommitsWhileDown: cfg.Commits,
	}
	for _, warm := range []bool{true, false} {
		mode, pages, err := benchReadmission(cfg, warm)
		if err != nil {
			return nil, err
		}
		rep.Pages = pages
		rep.Modes = append(rep.Modes, mode)
	}
	warmMisses := float64(rep.Modes[0].PostRejoinMisses)
	coldMisses := float64(rep.Modes[1].PostRejoinMisses)
	if coldMisses > 0 {
		rep.MissReductionPct = (coldMisses - warmMisses) / coldMisses * 100
	}
	return rep, nil
}

// benchReadmission runs one mode: instant hysteresis and no ramp, so the
// measurement isolates the warmup itself rather than the probation machine.
func benchReadmission(cfg RecoveryBenchConfig, warm bool) (RecoveryBenchMode, int, error) {
	name := "cold"
	if warm {
		name = "warm"
	}
	mode := RecoveryBenchMode{Mode: name}
	d, err := deploy.New(deploy.Config{
		Spec:      spec(),
		Complexes: recoveryComplexes(),
	}, deploy.WithRecovery(recovery.Policy{Warm: warm, HealthPolicy: dispatch.HealthPolicy{
		FailThreshold: 1, ReadmitThreshold: 1, RampStart: 1,
	}}))
	if err != nil {
		return mode, 0, err
	}
	ctx := context.Background()
	if err := d.Start(ctx); err != nil {
		return mode, 0, err
	}
	defer func() { _ = d.Shutdown(ctx) }()
	if err := d.Prime(cfg.Timeout); err != nil {
		return mode, 0, err
	}

	cx := d.Complexes()[0]
	victim := cx.Cluster.Nodes()[0]
	pages := cx.Site.Pages()
	victim.Fail()
	cx.Cluster.Advise()

	events := d.MasterSite.Events
	for i := 0; i < cfg.Commits; i++ {
		ev := events[i%len(events)]
		if _, err := d.MasterSite.RecordPartial(ev,
			ev.Participants[i%len(ev.Participants)], fmt.Sprintf("bench.%s.%d", name, i)); err != nil {
			return mode, 0, fmt.Errorf("bench recovery: commit %d: %w", i, err)
		}
	}
	if !d.WaitFresh(cfg.Timeout) {
		return mode, 0, fmt.Errorf("bench recovery: %s plant did not converge", name)
	}

	start := time.Now()
	victim.Recover()
	if !victim.WaitReady(cfg.Timeout) {
		return mode, 0, fmt.Errorf("bench recovery: %s victim never became ready", name)
	}
	if _, err := sweepsToUp(cx, victim.Name()); err != nil {
		return mode, 0, err
	}
	mode.MTTRMillis = time.Since(start).Seconds() * 1e3

	for _, p := range pages {
		_, outcome, err := victim.Serve(p)
		if err != nil {
			return mode, 0, fmt.Errorf("bench recovery: %s post-rejoin serve %s: %w", name, p, err)
		}
		if outcome == httpserver.OutcomeHit {
			mode.PostRejoinHits++
		} else {
			mode.PostRejoinMisses++
		}
	}
	if cx.Recovery != nil {
		mode.PagesFromPeer = cx.Recovery.PagesFromPeer.Value()
		mode.PagesRendered = cx.Recovery.PagesRendered.Value()
	}
	return mode, len(pages), nil
}

// WriteJSON serializes the report, indented, to w.
func (r *RecoveryBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
