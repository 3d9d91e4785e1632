package chaos

import (
	"context"
	"fmt"
	"io"
	"time"

	"dupserve/internal/deploy"
	"dupserve/internal/routing"
)

// AuditSummary aggregates the consistency-audit sweeps run at the end of a
// chaos scenario. The Probe* fields come from quiescent probe sweeps —
// after convergence, every page of every complex is served once through
// its dispatcher and verified against a shadow render — and are fully
// deterministic: every probe must come back coherent. The Live* fields
// classify the samples captured while the scenario's traffic and faults
// were running; their split between coherent and bounded-stale depends on
// timing, so they appear here for assertions but never in the
// deterministic report.
type AuditSummary struct {
	Complexes int
	// Pages and Probes count shadow-rendered pages and quiescent probes
	// across all complexes (Probes == Pages when every page was checked).
	Pages  int
	Probes int
	// Probe sweep classification (invariant: everything coherent).
	Coherent       int
	BoundedStale   int
	ViolatingStale int
	Incoherent     int
	// IncoherentPages names the offending pages, if any.
	IncoherentPages []string
	// Completeness diff across all sweeps (invariant: both zero).
	MissingEdges     int
	SuperfluousEdges int
	// Live sweep classification (timing-dependent).
	LiveSamples    int
	LiveCoherent   int
	LiveBounded    int
	LiveViolating  int
	LiveIncoherent int
	// OK: every probe coherent, zero incoherent pages, zero missing and
	// superfluous edges.
	OK bool
}

// auditSweep runs the end-of-scenario consistency audit against a
// converged deployment built WithAudit. Per complex it first drains the
// samples captured during the scenario (the live sweep), then serves every
// page once through the complex's dispatcher and sweeps again (the probe
// sweep). At quiescence each probe either hits the propagated copy or
// renders fresh at the replica's LSN, so the probe sweep's counts are
// deterministic; one line per complex is printed to out.
func auditSweep(d *deploy.Deployment, out io.Writer) (AuditSummary, error) {
	var sum AuditSummary
	sum.OK = true
	for _, cx := range d.Complexes() {
		if cx.Auditor == nil {
			return sum, fmt.Errorf("chaos: complex %s has no auditor (deployment not built WithAudit)", cx.Name)
		}
		live, err := cx.Auditor.Sweep()
		if err != nil {
			return sum, fmt.Errorf("chaos: live audit sweep %s: %w", cx.Name, err)
		}
		sum.LiveSamples += live.Samples
		sum.LiveCoherent += live.Coherent
		sum.LiveBounded += live.BoundedStale
		sum.LiveViolating += live.ViolatingStale
		sum.LiveIncoherent += live.Incoherent
		sum.MissingEdges += len(live.MissingEdges)
		sum.SuperfluousEdges += len(live.SuperfluousEdges)

		// A fault window may have left healthy nodes marked down in the
		// dispatcher (a failed serve pulls the node and nothing re-adds it
		// until an advisor sweep); run the advisors so probes see the real
		// pool.
		cx.Cluster.Advise()
		pages := cx.Site.Pages()
		for _, p := range pages {
			if _, _, err := cx.Cluster.Serve(p); err != nil {
				return sum, fmt.Errorf("chaos: audit probe %s %s: %w", cx.Name, p, err)
			}
		}
		probe, err := cx.Auditor.Sweep()
		if err != nil {
			return sum, fmt.Errorf("chaos: probe audit sweep %s: %w", cx.Name, err)
		}
		sum.Complexes++
		sum.Pages += probe.Pages
		sum.Probes += probe.Samples
		sum.Coherent += probe.Coherent
		sum.BoundedStale += probe.BoundedStale
		sum.ViolatingStale += probe.ViolatingStale
		sum.Incoherent += probe.Incoherent
		sum.IncoherentPages = append(sum.IncoherentPages, probe.IncoherentPages...)
		sum.MissingEdges += len(probe.MissingEdges)
		sum.SuperfluousEdges += len(probe.SuperfluousEdges)

		ok := probe.Samples == probe.Coherent && probe.Incoherent == 0 &&
			len(live.MissingEdges) == 0 && len(live.SuperfluousEdges) == 0 &&
			len(probe.MissingEdges) == 0 && len(probe.SuperfluousEdges) == 0
		if !ok {
			sum.OK = false
		}
		fmt.Fprintf(out,
			"audit %-10s pages=%d probes=%d coherent=%d bounded_stale=%d violating_stale=%d incoherent=%d missing_edges=%d superfluous_edges=%d ok=%t\n",
			cx.Name, probe.Pages, probe.Samples, probe.Coherent, probe.BoundedStale,
			probe.ViolatingStale, probe.Incoherent,
			len(live.MissingEdges)+len(probe.MissingEdges),
			len(live.SuperfluousEdges)+len(probe.SuperfluousEdges), ok)
	}
	return sum, nil
}

// AuditConfig describes a standalone audit run.
type AuditConfig struct {
	// Seed labels the run (the scenario itself is deterministic).
	Seed int64
	// SLO is the freshness objective handed to tracers and the auditor
	// (default 60s).
	SLO time.Duration
	// Timeout bounds each convergence wait (default 30s).
	Timeout time.Duration
	// Out receives the report (default: discard).
	Out io.Writer
}

// AuditResult is the standalone audit outcome.
type AuditResult struct {
	Seed    int64
	Summary AuditSummary
	OK      bool
}

// RunAudit executes the standalone consistency audit: the tournament plant
// is brought up WithAudit, a burst of results commits while every event
// page is served from every region, the plant converges, and the audit
// sweep verifies that every complex is provably coherent — zero incoherent
// pages, zero missing or superfluous ODG edges.
func RunAudit(cfg AuditConfig) (*AuditResult, error) {
	if cfg.SLO <= 0 {
		cfg.SLO = 60 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}

	d, err := deploy.New(deploy.Config{
		Spec:      spec(),
		Complexes: topology(),
	},
		deploy.WithTracing(cfg.SLO),
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

	fmt.Fprintf(cfg.Out, "audit sweep: seed=%d slo=%s\n", cfg.Seed, cfg.SLO)

	// Traffic under propagation: every event receives a result while its
	// page is served from each region, so the auditors capture hits taken
	// mid-propagation as well as settled ones.
	events := d.MasterSite.Events
	regions := []routing.Region{routing.RegionJapan, routing.RegionUS, routing.RegionEurope}
	for round := 0; round < 3; round++ {
		for i, ev := range events {
			if _, err := d.MasterSite.RecordPartial(ev,
				ev.Participants[(round+i)%len(ev.Participants)],
				fmt.Sprintf("audit.%d.%d", round, i)); err != nil {
				return nil, fmt.Errorf("audit: commit: %w", err)
			}
			for _, region := range regions {
				_, _, _, _ = d.Serve(region, eventPage(ev))
			}
		}
	}
	if !d.WaitFresh(cfg.Timeout) {
		return nil, fmt.Errorf("audit: plant did not converge")
	}

	sum, err := auditSweep(d, cfg.Out)
	if err != nil {
		return nil, err
	}
	res := &AuditResult{Seed: cfg.Seed, Summary: sum, OK: sum.OK}
	fmt.Fprintf(cfg.Out,
		"audit: seed=%d complexes=%d pages=%d incoherent=%d missing_edges=%d superfluous_edges=%d ok=%t\n",
		res.Seed, sum.Complexes, sum.Pages, sum.Incoherent, sum.MissingEdges,
		sum.SuperfluousEdges, res.OK)
	return res, nil
}
