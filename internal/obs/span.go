package obs

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"dupserve/internal/stats"
)

// ServeStage indexes the timestamps a request accrues as it moves through
// the serve path. Stages are stamped in pipeline order but not every request
// visits every stage: a cache hit never stamps SpanAdmit or SpanRender, a
// shed request never stamps SpanRender, and only a degraded request stamps
// SpanStale.
type ServeStage int

// The serve-path stages, in the order the dispatcher and node traverse them.
const (
	SpanStart  ServeStage = iota // request entered the dispatcher
	SpanRoute                    // node selected (routing + retry loop)
	SpanLookup                   // cache consulted (hit or miss known)
	SpanAdmit                    // admission granted by the overload limiter
	SpanRender                   // page regenerated from the database
	SpanStale                    // stale fallback served under shed pressure
	SpanDone                     // response finalized
	NumServeStages
)

var serveStageNames = [NumServeStages]string{
	"start", "route", "lookup", "admit", "render", "stale", "done",
}

// String returns the short stage name used in metric labels and JSON.
func (s ServeStage) String() string {
	if s < 0 || s >= NumServeStages {
		return "unknown"
	}
	return serveStageNames[s]
}

// Outcome strings recorded on spans. They mirror httpserver.Outcome.String()
// values (obs cannot import httpserver — the server imports obs).
const (
	OutcomeHit      = "hit"
	OutcomeMiss     = "miss"
	OutcomeStatic   = "static"
	OutcomeNotFound = "notfound"
	OutcomeError    = "error"
	OutcomeStale    = "stale"
	OutcomeShed     = "shed"
)

var spanOutcomes = []string{
	OutcomeHit, OutcomeMiss, OutcomeStatic, OutcomeNotFound,
	OutcomeError, OutcomeStale, OutcomeShed,
}

// ServeTrace is the value-type record of one served request. Times holds
// one timestamp per stage; a zero time means the request skipped that stage.
// LSN is the version of the object the response reflected (staleness
// provenance: compare against the propagation tracer's in-flight LSNs),
// and DBReads counts database reads performed by the render, if any.
type ServeTrace struct {
	ID      int64
	Path    string
	Node    string
	Outcome string
	LSN     int64
	DBReads int64
	Times   [NumServeStages]time.Time
}

// StageDur returns the time spent reaching stage s: the gap from the most
// recent earlier stage that was actually stamped. Unvisited stages (zero
// time) report 0.
func (t *ServeTrace) StageDur(s ServeStage) time.Duration {
	if s <= SpanStart || s >= NumServeStages || t.Times[s].IsZero() {
		return 0
	}
	for p := s - 1; p >= SpanStart; p-- {
		if !t.Times[p].IsZero() {
			d := t.Times[s].Sub(t.Times[p])
			if d < 0 {
				return 0
			}
			return d
		}
	}
	return 0
}

// Total returns end-to-end latency (SpanStart to SpanDone), or 0 if the
// span never finished.
func (t *ServeTrace) Total() time.Duration {
	if t.Times[SpanStart].IsZero() || t.Times[SpanDone].IsZero() {
		return 0
	}
	d := t.Times[SpanDone].Sub(t.Times[SpanStart])
	if d < 0 {
		return 0
	}
	return d
}

// serveTraceJSON is the wire form of a span: stage durations by name rather
// than raw timestamps, so the /debug/serve payload is self-describing.
type serveTraceJSON struct {
	ID       int64              `json:"id"`
	Path     string             `json:"path"`
	Node     string             `json:"node,omitempty"`
	Outcome  string             `json:"outcome"`
	LSN      int64              `json:"lsn"`
	DBReads  int64              `json:"db_reads"`
	Start    time.Time          `json:"start"`
	TotalMS  float64            `json:"total_ms"`
	StagesMS map[string]float64 `json:"stages_ms,omitempty"`
}

// MarshalJSON renders the span with named stage durations in milliseconds.
func (t ServeTrace) MarshalJSON() ([]byte, error) {
	out := serveTraceJSON{
		ID:      t.ID,
		Path:    t.Path,
		Node:    t.Node,
		Outcome: t.Outcome,
		LSN:     t.LSN,
		DBReads: t.DBReads,
		Start:   t.Times[SpanStart],
		TotalMS: float64(t.Total()) / float64(time.Millisecond),
	}
	for s := SpanRoute; s < SpanDone; s++ {
		if t.Times[s].IsZero() {
			continue
		}
		if out.StagesMS == nil {
			out.StagesMS = make(map[string]float64, int(SpanDone-SpanRoute))
		}
		out.StagesMS[s.String()] = float64(t.StageDur(s)) / float64(time.Millisecond)
	}
	return json.Marshal(out)
}

// spanKey is the context key under which an active *Span travels.
type spanKey struct{}

// Span is the mutable, pooled handle for an in-flight request. All methods
// are nil-receiver safe so instrumented code can call them unconditionally —
// a request served outside any collector (unit tests, direct node calls)
// simply records nothing.
type Span struct {
	c  *Collector
	tr ServeTrace
	// ctx is this span's pre-derived context (Background + spanKey -> span),
	// built once at pool-insert time so starting a span from a background
	// context allocates nothing.
	ctx context.Context
}

// FromContext returns the active span, or nil if the request is untraced.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Stamp records the current time for stage s.
func (sp *Span) Stamp(s ServeStage) {
	if sp == nil || s < 0 || s >= NumServeStages {
		return
	}
	sp.tr.Times[s] = sp.c.now()
}

// SetPath records the requested page ID.
func (sp *Span) SetPath(path string) {
	if sp != nil {
		sp.tr.Path = path
	}
}

// SetNode records which node served the request.
func (sp *Span) SetNode(node string) {
	if sp != nil {
		sp.tr.Node = node
	}
}

// SetOutcome records the terminal outcome (one of the Outcome* constants).
func (sp *Span) SetOutcome(outcome string) {
	if sp != nil {
		sp.tr.Outcome = outcome
	}
}

// SetLSN records the version the response reflected.
func (sp *Span) SetLSN(lsn int64) {
	if sp != nil {
		sp.tr.LSN = lsn
	}
}

// AddDBReads accrues database reads attributed to this request's render.
func (sp *Span) AddDBReads(n int64) {
	if sp != nil {
		sp.tr.DBReads += n
	}
}

// Finish stamps SpanDone, records the span into the collector's histograms
// and ring, and returns the span to the pool. The span must not be used
// after Finish.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	c := sp.c
	sp.tr.Times[SpanDone] = c.now()
	c.record(&sp.tr)
	c.pool.Put(sp)
}

// Collector mints and records serve spans for one dispatcher. The hot path
// (StartSpan from a background context, Stamp, Finish) performs zero heap
// allocations: spans are pooled, each pooled span carries a pre-derived
// context, histograms are lock-free, and the ring is preallocated.
type Collector struct {
	now  func() time.Time
	pool sync.Pool
	ids  atomic.Int64

	stageHist   [NumServeStages]*stats.Histogram
	totalHist   *stats.Histogram
	outcomeHist map[string]*stats.Histogram // fixed keys; read-only after init
	dbReads     *stats.Histogram
	recorded    stats.Counter

	mu   sync.Mutex
	ring stats.Ring[ServeTrace] // spanRingSize most recent spans
}

// serveLatencyBounds cover sub-10µs cache hits through multi-second
// pathological renders.
var serveLatencyBounds = []float64{
	0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// dbReadBounds bucket per-render database read counts.
var dbReadBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250}

func newCollector(cfg config) *Collector {
	c := &Collector{
		now:         cfg.clock,
		totalHist:   stats.NewHistogram(serveLatencyBounds...),
		outcomeHist: make(map[string]*stats.Histogram, len(spanOutcomes)),
		dbReads:     stats.NewHistogram(dbReadBounds...),
		ring:        stats.NewRing[ServeTrace](spanRingSize),
	}
	for s := SpanRoute; s < NumServeStages; s++ {
		c.stageHist[s] = stats.NewHistogram(serveLatencyBounds...)
	}
	for _, o := range spanOutcomes {
		c.outcomeHist[o] = stats.NewHistogram(serveLatencyBounds...)
	}
	c.pool.New = func() any {
		sp := &Span{c: c}
		sp.ctx = context.WithValue(context.Background(), spanKey{}, sp)
		return sp
	}
	return c
}

// StartSpan mints a span for one request and returns a context carrying it.
// When ctx is nil or context.Background() the span's pre-derived context is
// reused and the call allocates nothing; otherwise one derived context is
// created so cancellation and deadlines propagate.
func (c *Collector) StartSpan(ctx context.Context) (context.Context, *Span) {
	sp := c.pool.Get().(*Span)
	sp.tr = ServeTrace{ID: c.ids.Add(1)}
	sp.tr.Times[SpanStart] = c.now()
	if ctx == nil || ctx == context.Background() {
		return sp.ctx, sp
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// record observes the finished trace into histograms and the ring.
func (c *Collector) record(tr *ServeTrace) {
	for s := SpanRoute; s < NumServeStages; s++ {
		if tr.Times[s].IsZero() {
			continue
		}
		c.stageHist[s].Observe(tr.StageDur(s).Seconds())
	}
	total := tr.Total().Seconds()
	c.totalHist.Observe(total)
	if h := c.outcomeHist[tr.Outcome]; h != nil {
		h.Observe(total)
	}
	if !tr.Times[SpanRender].IsZero() {
		c.dbReads.Observe(float64(tr.DBReads))
	}
	c.recorded.Inc()

	c.mu.Lock()
	c.ring.Push(*tr)
	c.mu.Unlock()
}

// Recent returns up to n recorded spans, newest first.
func (c *Collector) Recent(n int) []ServeTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Recent(n)
}

// RegisterMetrics publishes the collector's histogram families into reg.
func (c *Collector) RegisterMetrics(reg *stats.Registry, labels stats.Labels) {
	for s := SpanRoute; s < NumServeStages; s++ {
		l := stats.Labels{"stage": s.String()}
		for k, v := range labels {
			l[k] = v
		}
		reg.RegisterHistogram("serve_stage_seconds",
			"time spent reaching each serve-path stage", l, c.stageHist[s])
	}
	for _, o := range spanOutcomes {
		l := stats.Labels{"outcome": o}
		for k, v := range labels {
			l[k] = v
		}
		reg.RegisterHistogram("serve_outcome_seconds",
			"end-to-end serve latency by outcome", l, c.outcomeHist[o])
	}
	reg.RegisterHistogram("serve_seconds",
		"end-to-end serve latency across all outcomes", labels, c.totalHist)
	reg.RegisterHistogram("serve_db_reads",
		"database reads per rendered request", labels, c.dbReads)
	reg.RegisterCounter("serve_spans_recorded_total",
		"serve spans recorded", labels, &c.recorded)
}

// OutcomeSnapshot summarizes latency for one outcome class.
type OutcomeSnapshot struct {
	Outcome string  `json:"outcome"`
	Count   int64   `json:"count"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// StageSnapshot summarizes time spent reaching one stage.
type StageSnapshot struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P95MS  float64 `json:"p95_ms"`
}

// CollectorSnapshot is the aggregate view served by /debug/serve.
type CollectorSnapshot struct {
	Recorded   int64             `json:"recorded"`
	MeanMS     float64           `json:"mean_ms"`
	P50MS      float64           `json:"p50_ms"`
	P95MS      float64           `json:"p95_ms"`
	P99MS      float64           `json:"p99_ms"`
	DBReadMean float64           `json:"db_reads_mean"`
	Stages     []StageSnapshot   `json:"stages"`
	Outcomes   []OutcomeSnapshot `json:"outcomes"`
}

const msPerSec = 1000

// Snapshot returns aggregate serve-path statistics.
func (c *Collector) Snapshot() CollectorSnapshot {
	snap := CollectorSnapshot{
		Recorded:   c.recorded.Value(),
		MeanMS:     c.totalHist.Mean() * msPerSec,
		P50MS:      c.totalHist.Quantile(0.50) * msPerSec,
		P95MS:      c.totalHist.Quantile(0.95) * msPerSec,
		P99MS:      c.totalHist.Quantile(0.99) * msPerSec,
		DBReadMean: c.dbReads.Mean(),
	}
	for s := SpanRoute; s < NumServeStages; s++ {
		h := c.stageHist[s]
		if h.Count() == 0 {
			continue
		}
		snap.Stages = append(snap.Stages, StageSnapshot{
			Stage:  s.String(),
			Count:  h.Count(),
			MeanMS: h.Mean() * msPerSec,
			P95MS:  h.Quantile(0.95) * msPerSec,
		})
	}
	for _, o := range spanOutcomes {
		h := c.outcomeHist[o]
		if h.Count() == 0 {
			continue
		}
		snap.Outcomes = append(snap.Outcomes, OutcomeSnapshot{
			Outcome: o,
			Count:   h.Count(),
			MeanMS:  h.Mean() * msPerSec,
			P50MS:   h.Quantile(0.50) * msPerSec,
			P95MS:   h.Quantile(0.95) * msPerSec,
			P99MS:   h.Quantile(0.99) * msPerSec,
		})
	}
	return snap
}
