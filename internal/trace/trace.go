// Package trace implements end-to-end propagation tracing for the DUP
// pipeline: commit → CDC → batch → DUP traversal → render → cache push.
//
// The paper's headline operational claim — pages "reflecting current events
// within a maximum of sixty seconds" — is a statement about propagation
// delay, yet that delay spans four subsystems (database, trigger monitor,
// DUP engine, cache distribution) and is invisible to any one of them. This
// package makes it first-class: the database mints a trace ID at commit
// time, the ID rides the CDC transaction through the trigger monitor's
// batching and the engine's traversal/render/push phases, and the monitor
// records one Trace per transaction carrying the boundary timestamp of
// every stage.
//
// A Tracer keeps a bounded ring of recent traces (for /debug/traces), feeds
// per-stage latency histograms (for percentiles), and continuously
// evaluates the freshness SLO: each completed trace whose commit-to-push
// latency exceeds the SLO counts as a violation, and the set of in-flight
// transactions yields the current worst staleness — how far behind the
// site is right now.
//
// Record is the hot path: it takes a Trace by value, writes into
// preallocated storage, and performs no allocation, so tracing every
// transaction is affordable even at Olympic update rates.
package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"dupserve/internal/stats"
)

// Stage indexes the boundary timestamps of a propagation trace. Each
// constant names the event that *ends* the stage: StageCDC is the moment
// the transaction arrived at the trigger monitor, StagePush the moment the
// last fresh page reached the serving caches.
type Stage int

const (
	// StageCommit is the database commit (the trace's birth).
	StageCommit Stage = iota
	// StageCDC is arrival at the trigger monitor via the change feed.
	StageCDC
	// StageBatch is the batch flush that began the propagation.
	StageBatch
	// StageDUP is completion of the dependence-graph traversal.
	StageDUP
	// StageRender is completion of page regeneration.
	StageRender
	// StagePush is completion of distribution to the serving caches.
	StagePush
	// NumStages is the number of trace stages.
	NumStages
)

var stageNames = [NumStages]string{"commit", "cdc", "batch", "dup", "render", "push"}

// String names the stage.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Trace is one transaction's journey through the pipeline: a boundary
// timestamp per stage plus what the propagation touched. Traces are plain
// values so recording them never allocates.
type Trace struct {
	// ID is the trace ID minted by the database at commit.
	ID int64
	// LSN is the transaction's log sequence number.
	LSN int64
	// Times holds the boundary timestamp of each stage, indexed by Stage.
	Times [NumStages]time.Time
	// Vertices is the number of changed ODG vertices in the propagation
	// batch that carried this transaction.
	Vertices int
	// FanOut is the number of cached objects the traversal found affected.
	FanOut int
	// Updated and Invalidated count the remedies the batch applied.
	Updated, Invalidated int
	// FragmentRenders and FragmentReuses carry the batch's render-vs-reuse
	// accounting from incremental assembly: fragments rendered (each
	// changed fragment once) and cached fragment splices during page
	// rebuilds. Zero when the engine propagated without an assembler.
	FragmentRenders, FragmentReuses int
}

// Total returns the commit-to-push latency.
func (t Trace) Total() time.Duration {
	return t.Times[StagePush].Sub(t.Times[StageCommit])
}

// StageDur returns the duration of stage s — the gap between its boundary
// and the previous stage's. StageCommit has no predecessor and returns 0.
func (t Trace) StageDur(s Stage) time.Duration {
	if s <= StageCommit || s >= NumStages {
		return 0
	}
	return t.Times[s].Sub(t.Times[s-1])
}

// normalize clamps the timestamps to be monotonically non-decreasing in
// stage order. Simulated clocks and cross-goroutine stamping can produce
// microscopic inversions; a trace must never report a negative stage.
func (t *Trace) normalize() {
	for s := StageCDC; s < NumStages; s++ {
		if t.Times[s].Before(t.Times[s-1]) {
			t.Times[s] = t.Times[s-1]
		}
	}
}

// MarshalJSON renders the trace with named stage durations for the
// /debug/traces endpoint.
func (t Trace) MarshalJSON() ([]byte, error) {
	stages := make(map[string]float64, NumStages-1)
	for s := StageCDC; s < NumStages; s++ {
		stages[s.String()+"_ms"] = float64(t.StageDur(s).Microseconds()) / 1e3
	}
	return json.Marshal(struct {
		ID              int64              `json:"id"`
		LSN             int64              `json:"lsn"`
		Commit          time.Time          `json:"commit"`
		TotalMS         float64            `json:"total_ms"`
		Stages          map[string]float64 `json:"stages"`
		Vertices        int                `json:"vertices"`
		FanOut          int                `json:"fan_out"`
		Updated         int                `json:"updated"`
		Invalidated     int                `json:"invalidated"`
		FragmentRenders int                `json:"fragment_renders"`
		FragmentReuses  int                `json:"fragment_reuses"`
	}{t.ID, t.LSN, t.Times[StageCommit], float64(t.Total().Microseconds()) / 1e3,
		stages, t.Vertices, t.FanOut, t.Updated, t.Invalidated,
		t.FragmentRenders, t.FragmentReuses})
}

// latencyBounds are the default histogram bucket bounds, in seconds, for
// stage and total latencies: 1ms resolution at the bottom, reaching past
// the 60-second SLO so violations land in real buckets, not overflow.
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 20, 30, 45, 60, 90, 120,
}

// Tracer collects propagation traces: a bounded ring of recent traces,
// per-stage latency histograms, and the freshness-SLO monitor. Safe for
// concurrent use.
type Tracer struct {
	slo time.Duration
	now func() time.Time

	mu       sync.Mutex
	ring     stats.Ring[Trace]
	inflight map[int64]time.Time // trace ID -> commit time

	stageHist [NumStages]*stats.Histogram // index 0 (commit) unused
	totalHist *stats.Histogram

	recorded   stats.Counter
	violations stats.Counter
	lastMicro  stats.Gauge // most recent commit->push latency, µs; Max() is worst ever

	onViolation func(Trace) // fired (outside mu) for each SLO-violating trace
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithRingSize bounds the recent-trace ring to n entries (default 256).
func WithRingSize(n int) Option {
	return func(t *Tracer) {
		if n > 0 {
			t.ring = stats.NewRing[Trace](n)
		}
	}
}

// WithSLO sets the freshness objective (default 60s, the paper's
// guarantee). Zero disables violation counting.
func WithSLO(d time.Duration) Option {
	return func(t *Tracer) { t.slo = d }
}

// WithClock substitutes the staleness clock.
// It is a test seam: production always runs on the real clock.
func WithClock(now func() time.Time) Option {
	return func(t *Tracer) { t.now = now }
}

// New returns a Tracer with a 256-entry ring and the paper's 60-second
// freshness SLO.
func New(opts ...Option) *Tracer {
	t := &Tracer{
		slo:      60 * time.Second,
		now:      time.Now,
		ring:     stats.NewRing[Trace](256),
		inflight: make(map[int64]time.Time),
	}
	for _, o := range opts {
		o(t)
	}
	for s := StageCDC; s < NumStages; s++ {
		t.stageHist[s] = stats.NewHistogram(latencyBounds...)
	}
	t.totalHist = stats.NewHistogram(latencyBounds...)
	return t
}

// SLO returns the configured freshness objective.
func (t *Tracer) SLO() time.Duration { return t.slo }

// SetOnViolation installs a callback fired once per trace whose
// commit-to-push latency exceeds the SLO. The callback runs on the
// recording goroutine after the tracer's lock is released; it must not
// block. Intended for wiring time (the observability journal), before
// propagation starts.
func (t *Tracer) SetOnViolation(fn func(Trace)) {
	t.mu.Lock()
	t.onViolation = fn
	t.mu.Unlock()
}

// Arrive registers an in-flight transaction: committed, seen on the CDC
// feed, not yet propagated. Until Record retires the ID, the transaction
// contributes to WorstInFlight.
func (t *Tracer) Arrive(id int64, commit time.Time) {
	t.mu.Lock()
	t.inflight[id] = commit
	t.mu.Unlock()
}

// Record completes a trace: it is normalized, stored in the ring, its
// stage latencies observed into the histograms, its ID retired from the
// in-flight set, and the SLO evaluated. The hot path — no allocation.
func (t *Tracer) Record(tr Trace) {
	tr.normalize()
	for s := StageCDC; s < NumStages; s++ {
		t.stageHist[s].Observe(tr.StageDur(s).Seconds())
	}
	total := tr.Total()
	t.totalHist.Observe(total.Seconds())
	t.recorded.Inc()
	t.lastMicro.Set(total.Microseconds())
	violated := t.slo > 0 && total > t.slo
	if violated {
		t.violations.Inc()
	}
	t.mu.Lock()
	delete(t.inflight, tr.ID)
	t.ring.Push(tr)
	cb := t.onViolation
	t.mu.Unlock()
	if violated && cb != nil {
		cb(tr)
	}
}

// Recent returns up to n of the most recently recorded traces, newest
// first. n <= 0 means the whole ring.
func (t *Tracer) Recent(n int) []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Recent(n)
}

// RingSize returns the ring capacity.
func (t *Tracer) RingSize() int { return t.ring.Cap() }

// Recorded returns the total number of traces recorded.
func (t *Tracer) Recorded() int64 { return t.recorded.Value() }

// Violations returns the number of completed traces that exceeded the SLO.
func (t *Tracer) Violations() int64 { return t.violations.Value() }

// InFlight returns the number of transactions seen on the CDC feed but not
// yet propagated.
func (t *Tracer) InFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inflight)
}

// WorstInFlight returns the age of the oldest unpropagated transaction —
// the staleness bound the site is exposing *right now*. Zero when nothing
// is in flight.
func (t *Tracer) WorstInFlight() time.Duration {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var worst time.Duration
	for _, commit := range t.inflight {
		if d := now.Sub(commit); d > worst {
			worst = d
		}
	}
	return worst
}

// StageHistogram returns the latency histogram for stage s (nil for
// StageCommit, which has no duration).
func (t *Tracer) StageHistogram(s Stage) *stats.Histogram {
	if s <= StageCommit || s >= NumStages {
		return nil
	}
	return t.stageHist[s]
}

// TotalHistogram returns the commit-to-push latency histogram.
func (t *Tracer) TotalHistogram() *stats.Histogram { return t.totalHist }

// RegisterMetrics publishes the tracer into a registry: per-stage latency
// histograms (labeled by stage), the end-to-end latency histogram, the SLO
// violation counter, and live gauges for in-flight count and worst
// staleness.
func (t *Tracer) RegisterMetrics(reg *stats.Registry) {
	for s := StageCDC; s < NumStages; s++ {
		reg.RegisterHistogram("dup_propagation_stage_seconds",
			"per-stage propagation latency (gap from previous stage boundary)",
			stats.Labels{"stage": s.String()}, t.stageHist[s])
	}
	reg.RegisterHistogram("dup_propagation_seconds",
		"end-to-end commit-to-push propagation latency", nil, t.totalHist)
	reg.RegisterCounter("dup_traces_recorded_total",
		"propagation traces recorded", nil, &t.recorded)
	reg.RegisterCounter("dup_freshness_slo_violations_total",
		fmt.Sprintf("traces whose commit-to-push latency exceeded the %s SLO", t.slo),
		nil, &t.violations)
	reg.RegisterGauge("dup_last_propagation_micros",
		"commit-to-push latency of the most recently completed trace, microseconds", nil, &t.lastMicro)
	reg.RegisterFunc("dup_worst_propagation_seconds",
		"worst commit-to-push latency ever completed", nil,
		func() float64 { return float64(t.lastMicro.Max()) / 1e6 })
	reg.RegisterFunc("dup_inflight_transactions",
		"transactions committed but not yet propagated", nil,
		func() float64 { return float64(t.InFlight()) })
	reg.RegisterFunc("dup_worst_inflight_staleness_seconds",
		"age of the oldest unpropagated transaction", nil,
		func() float64 { return t.WorstInFlight().Seconds() })
}

// StageSnapshot is the latency summary of one stage.
type StageSnapshot struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P95   float64 `json:"p95_s"`
	P99   float64 `json:"p99_s"`
}

// Snapshot is a point-in-time summary of the tracer for JSON endpoints.
type Snapshot struct {
	SLOSeconds        float64         `json:"slo_seconds"`
	Recorded          int64           `json:"recorded"`
	Violations        int64           `json:"slo_violations"`
	InFlight          int             `json:"inflight"`
	WorstInFlightSecs float64         `json:"worst_inflight_staleness_s"`
	Total             StageSnapshot   `json:"total"`
	Stages            []StageSnapshot `json:"stages"`
}

func histSnapshot(name string, h *stats.Histogram) StageSnapshot {
	return StageSnapshot{
		Stage: name,
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Snapshot summarizes the tracer.
func (t *Tracer) Snapshot() Snapshot {
	s := Snapshot{
		SLOSeconds:        t.slo.Seconds(),
		Recorded:          t.Recorded(),
		Violations:        t.Violations(),
		InFlight:          t.InFlight(),
		WorstInFlightSecs: t.WorstInFlight().Seconds(),
		Total:             histSnapshot("total", t.totalHist),
	}
	for st := StageCDC; st < NumStages; st++ {
		s.Stages = append(s.Stages, histSnapshot(st.String(), t.stageHist[st]))
	}
	return s
}
