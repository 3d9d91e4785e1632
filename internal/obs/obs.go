// Package obs is the serve-side observability layer: per-request serve
// spans, a structured event journal, and an anomaly flight recorder.
//
// PR 1 made the *propagation* path observable (internal/trace follows every
// transaction commit -> cdc -> batch -> dup -> render -> push). This package
// does the same for the *read* path. A ServeTrace is minted by the dispatcher
// for each request and threaded through the serving node via context; the
// node stamps stage boundaries (route selection, cache lookup, admission
// wait, render, stale fallback) and records what the response actually
// reflected — outcome, serving node, observed LSN, and database reads — so
// every served page can be correlated back to the propagation trace that
// produced its content. Recording mirrors internal/trace's hot path: value
// types, preallocated ring storage, lock-free histograms, zero allocation
// per request.
//
// The Journal replaces silent state changes with typed events: trigger
// crashes and replays, cache push downgrades, overload shed transitions,
// routing address withdrawals, audit incoherence. Subsystems stay free of
// obs imports — deploy wires their existing callback seams into the journal.
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
	"dupserve/internal/trace"
)

// Ring capacities: the recent serve spans and journal events a dump can
// draw on, and the dumps the recorder retains.
const (
	spanRingSize    = 256
	journalRingSize = 256
	dumpRingSize    = 16
)

// config collects the knobs shared by the suite's components.
type config struct {
	name   string
	clock  func() time.Time
	tracer *trace.Tracer
	reg    *stats.Registry
}

func defaultConfig() config {
	return config{clock: time.Now}
}

// Option configures a Suite (and the individual component constructors,
// which read the fields relevant to them).
type Option func(*config)

// WithName labels the suite (typically the complex name); it appears in
// every dump.
func WithName(name string) Option {
	return func(c *config) { c.name = name }
}

// WithClock substitutes the time source for spans, journal events, and
// dumps. It is a test seam: deterministic tests inject a logical clock
// here, and production runs on the real clock.
func WithClock(now func() time.Time) Option {
	return func(c *config) {
		if now != nil {
			c.clock = now
		}
	}
}

// WithTracer attaches the complex's propagation tracer so dumps carry the
// recent propagation traces alongside serve spans.
func WithTracer(t *trace.Tracer) Option {
	return func(c *config) { c.tracer = t }
}

// WithMetrics attaches a registry whose Snapshot is embedded in every dump.
// Without it, dumps omit the metrics section (deterministic scenarios rely
// on that — metric values are timing-dependent).
func WithMetrics(reg *stats.Registry) Option {
	return func(c *config) { c.reg = reg }
}

// Suite bundles the three components one complex needs: the span collector,
// the event journal, and the flight recorder wired to both.
type Suite struct {
	Name      string
	Collector *Collector
	Journal   *Journal
	Recorder  *Recorder
}

// NewSuite builds a collector, journal, and recorder wired together.
func NewSuite(opts ...Option) *Suite {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	col := newCollector(cfg)
	j := newJournal(cfg)
	rec := newRecorder(cfg, col, j)
	return &Suite{Name: cfg.name, Collector: col, Journal: j, Recorder: rec}
}

// SetArmed enables (true) or suppresses (false) journal appends — and with
// them recorder auto-captures. Deterministic scenarios keep the suite
// disarmed through startup (whose event timing is racy) and arm it once the
// plant has converged.
func (s *Suite) SetArmed(armed bool) { s.Journal.SetArmed(armed) }

// RegisterMetrics publishes the suite's families into reg.
func (s *Suite) RegisterMetrics(reg *stats.Registry, labels stats.Labels) {
	s.Collector.RegisterMetrics(reg, labels)
	reg.RegisterCounter("journal_events_total",
		"structured events appended to the journal", labels, &s.Journal.appended)
	reg.RegisterCounter("flight_dumps_total",
		"black-box dumps captured by the flight recorder", labels, &s.Recorder.captures)
}
