// Package obs is the observability spine of one serving complex: the
// propagation traces and serve spans that answer "why is this node serving
// this version of this page, and where did the time go?", a structured
// event journal, and an anomaly flight recorder.
//
// Both halves are stage models over one machinery (a histogram per stage,
// an end-to-end histogram, a preallocated ring of recent records, zero
// allocation per record). A Trace follows one committed transaction
// commit -> cdc -> batch -> dup -> render -> push: the database mints its
// ID, the trigger monitor stamps every boundary and records it into the
// Tracer, which also keeps the in-flight set (the site's current worst
// staleness) and the freshness SLO (the paper's 60 seconds). A ServeTrace
// follows one request: the dispatcher mints it and threads it through the
// serving node via context; the node stamps stage boundaries (route
// selection, cache lookup, admission wait, render, stale fallback) and
// records what the response reflected — outcome, serving node, observed
// LSN, and database reads — so a served page correlates by LSN with the
// propagation trace that produced its content.
//
// The Journal replaces silent state changes with typed events: trigger
// crashes and replays, cache push downgrades, overload shed transitions,
// routing address withdrawals, audit incoherence, freshness-SLO
// violations. deploy wires the subsystems' callback seams into it.
//
// The Recorder is the black box: it subscribes to the journal and, when a
// trigger condition fires (monitor crash, freshness-SLO violation, shed
// start, audit-incoherent page), snapshots the last N serve spans,
// propagation traces, and journal events into a self-contained Dump.
// Dump.Canonical projects away timestamps so a dump taken under a seeded,
// sequenced scenario is byte-for-byte reproducible (see chaos.RunFlight).
package obs

import (
	"time"

	"dupserve/internal/stats"
)

// Ring capacities: the recent propagation traces, serve spans and journal
// events a dump can draw on, and the dumps the recorder retains.
const (
	traceRingSize   = 256
	spanRingSize    = 256
	journalRingSize = 256
	dumpRingSize    = 16
)

// config collects the knobs shared by the suite's components.
type config struct {
	name  string
	clock func() time.Time
	slo   time.Duration
}

// Option configures a Suite.
type Option func(*config)

// WithName labels the suite (typically the complex name); it appears in
// every dump.
func WithName(name string) Option {
	return func(c *config) { c.name = name }
}

// WithClock substitutes the time source for staleness, spans, journal
// events, and dumps. It is a test seam: deterministic tests inject a
// logical clock here, and production runs on the real clock.
func WithClock(now func() time.Time) Option {
	return func(c *config) { c.clock = now }
}

// WithSLO sets the freshness objective (default 60s, the paper's
// guarantee). Zero disables violation counting.
func WithSLO(d time.Duration) Option {
	return func(c *config) { c.slo = d }
}

// Suite bundles what one complex observes: the propagation tracer, the
// serve-span collector, the event journal, and the flight recorder wired to
// all three.
type Suite struct {
	Name      string
	Tracer    *Tracer
	Collector *Collector
	Journal   *Journal
	Recorder  *Recorder
}

// NewSuite builds a tracer, collector, journal, and recorder wired together.
func NewSuite(opts ...Option) *Suite {
	cfg := config{clock: time.Now, slo: 60 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Suite{Name: cfg.name, Journal: newJournal(cfg), Collector: newCollector(cfg)}
	s.Tracer = newTracer(cfg, s.Journal)
	s.Recorder = newRecorder(cfg, s)
	return s
}

// SetArmed enables (true) or suppresses (false) journal appends — and with
// them recorder auto-captures. Deterministic scenarios keep the suite
// disarmed through startup (whose event timing is racy) and arm it once the
// plant has converged.
func (s *Suite) SetArmed(armed bool) { s.Journal.SetArmed(armed) }

// RegisterMetrics publishes the suite's families into reg, and from then on
// embeds reg's snapshot in every dump.
func (s *Suite) RegisterMetrics(reg *stats.Registry, labels stats.Labels) {
	s.Tracer.registerMetrics(reg, labels)
	s.Collector.registerMetrics(reg, labels)
	reg.RegisterCounter("journal_events_total",
		"structured events appended to the journal", labels, &s.Journal.appended)
	reg.RegisterCounter("flight_dumps_total",
		"black-box dumps captured by the flight recorder", labels, &s.Recorder.captures)
	s.Recorder.reg.Store(reg)
}
