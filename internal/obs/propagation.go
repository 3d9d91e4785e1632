package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
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

var stageNames = []string{"commit", "cdc", "batch", "dup", "render", "push"}

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
func (t Trace) Total() time.Duration { return totalDur(t.Times[:]) }

// normalize clamps the timestamps to be monotonically non-decreasing in
// stage order, so every stage is stamped. Simulated clocks and
// cross-goroutine stamping can produce microscopic inversions; a trace must
// never report a negative stage.
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
	return json.Marshal(struct {
		ID              int64              `json:"id"`
		LSN             int64              `json:"lsn"`
		Commit          time.Time          `json:"commit"`
		TotalMS         float64            `json:"total_ms"`
		StagesMS        map[string]float64 `json:"stages_ms"`
		Vertices        int                `json:"vertices"`
		FanOut          int                `json:"fan_out"`
		Updated         int                `json:"updated"`
		Invalidated     int                `json:"invalidated"`
		FragmentRenders int                `json:"fragment_renders"`
		FragmentReuses  int                `json:"fragment_reuses"`
	}{t.ID, t.LSN, t.Times[StageCommit], ms(t.Total()), stagesMS(t.Times[:], stageNames),
		t.Vertices, t.FanOut, t.Updated, t.Invalidated, t.FragmentRenders, t.FragmentReuses})
}

// latencyBounds are the histogram bucket bounds, in seconds, for
// propagation stage and total latencies: 1ms resolution at the bottom,
// reaching past the 60-second SLO so violations land in real buckets, not
// overflow.
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 20, 30, 45, 60, 90, 120,
}

// Tracer collects propagation traces: the stage log, the freshness-SLO
// monitor, and the in-flight set. Each completed trace whose commit-to-push
// latency exceeds the SLO counts as a violation and lands in the suite's
// journal as trace/slo_violation; the in-flight transactions yield the
// current worst staleness. Safe for concurrent use.
type Tracer struct {
	stageLog[Trace]
	slo     time.Duration
	now     func() time.Time
	journal *Journal

	mu       sync.Mutex
	inflight map[int64]time.Time // trace ID -> commit time

	violations stats.Counter
	lastMicro  stats.Gauge // most recent commit->push latency, µs; Max() is worst ever
}

func newTracer(cfg config, j *Journal) *Tracer {
	t := &Tracer{slo: cfg.slo, now: cfg.clock, journal: j, inflight: make(map[int64]time.Time)}
	t.init(stageNames, latencyBounds, traceRingSize)
	return t
}

// Arrive registers an in-flight transaction: committed, seen on the CDC
// feed, not yet propagated. Until Record retires the ID, the transaction
// contributes to WorstInFlight.
func (t *Tracer) Arrive(id int64, commit time.Time) {
	t.mu.Lock()
	t.inflight[id] = commit
	t.mu.Unlock()
}

// Record completes a trace: it is normalized, its stage latencies observed,
// stored in the ring, its ID retired from the in-flight set, and the SLO
// evaluated. The hot path allocates nothing unless the SLO is violated.
// The violation event carries the LSN, never the trace ID: IDs come from a
// process-wide counter and would make flight-recorder dumps irreproducible.
func (t *Tracer) Record(tr Trace) {
	tr.normalize()
	t.record(tr.Times[:], &tr)
	total := tr.Total()
	t.lastMicro.Set(total.Microseconds())
	t.mu.Lock()
	delete(t.inflight, tr.ID)
	t.mu.Unlock()
	if t.slo > 0 && total > t.slo {
		t.violations.Inc()
		t.journal.Event(LevelWarn, "trace", "slo_violation",
			"propagation exceeded the freshness SLO", "lsn", strconv.FormatInt(tr.LSN, 10))
	}
}

// SLO returns the freshness objective (0: violations are not counted).
func (t *Tracer) SLO() time.Duration { return t.slo }

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
		worst = max(worst, now.Sub(commit))
	}
	return worst
}

// registerMetrics publishes the tracer: per-stage latency histograms
// (labeled by stage), the end-to-end latency histogram, the record and SLO
// violation counters, and live gauges for in-flight count and worst
// staleness.
func (t *Tracer) registerMetrics(reg *stats.Registry, labels stats.Labels) {
	t.register(reg, labels,
		family{"dup_propagation_stage_seconds", "per-stage propagation latency (gap from previous stage boundary)"},
		family{"dup_propagation_seconds", "end-to-end commit-to-push propagation latency"},
		family{"dup_traces_recorded_total", "propagation traces recorded"})
	reg.RegisterCounter("dup_freshness_slo_violations_total",
		fmt.Sprintf("traces whose commit-to-push latency exceeded the %s SLO", t.slo),
		labels, &t.violations)
	reg.RegisterGauge("dup_last_propagation_micros",
		"commit-to-push latency of the most recently completed trace, microseconds", labels, &t.lastMicro)
	reg.RegisterFunc("dup_worst_propagation_seconds",
		"worst commit-to-push latency ever completed", labels,
		func() float64 { return float64(t.lastMicro.Max()) / 1e6 })
	reg.RegisterFunc("dup_inflight_transactions",
		"transactions committed but not yet propagated", labels,
		func() float64 { return float64(t.InFlight()) })
	reg.RegisterFunc("dup_worst_inflight_staleness_seconds",
		"age of the oldest unpropagated transaction", labels,
		func() float64 { return t.WorstInFlight().Seconds() })
}

// TraceSnapshot is a point-in-time summary of the tracer for JSON
// endpoints.
type TraceSnapshot struct {
	SLOSeconds        float64 `json:"slo_seconds"`
	Violations        int64   `json:"slo_violations"`
	InFlight          int     `json:"inflight"`
	WorstInFlightSecs float64 `json:"worst_inflight_staleness_s"`
	logSnapshot
}

// Snapshot summarizes the tracer.
func (t *Tracer) Snapshot() TraceSnapshot {
	return TraceSnapshot{
		SLOSeconds:        t.slo.Seconds(),
		Violations:        t.Violations(),
		InFlight:          t.InFlight(),
		WorstInFlightSecs: t.WorstInFlight().Seconds(),
		logSnapshot:       t.snapshot(),
	}
}
