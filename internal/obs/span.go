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

var serveStageNames = []string{
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

// Total returns end-to-end latency (SpanStart to SpanDone), or 0 if the
// span never finished.
func (t *ServeTrace) Total() time.Duration { return totalDur(t.Times[:]) }

// MarshalJSON renders the span with named stage durations in milliseconds,
// so the /debug/serve payload is self-describing.
func (t ServeTrace) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID       int64              `json:"id"`
		Path     string             `json:"path"`
		Node     string             `json:"node,omitempty"`
		Outcome  string             `json:"outcome"`
		LSN      int64              `json:"lsn"`
		DBReads  int64              `json:"db_reads"`
		Start    time.Time          `json:"start"`
		TotalMS  float64            `json:"total_ms"`
		StagesMS map[string]float64 `json:"stages_ms"`
	}{t.ID, t.Path, t.Node, t.Outcome, t.LSN, t.DBReads, t.Times[SpanStart],
		ms(t.Total()), stagesMS(t.Times[:], serveStageNames)})
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
	c.observe(&sp.tr)
	c.pool.Put(sp)
}

// Collector mints and records serve spans for one dispatcher. The hot path
// (StartSpan from a background context, Stamp, Finish) performs zero heap
// allocations: spans are pooled, each pooled span carries a pre-derived
// context, histograms are lock-free, and the ring is preallocated.
type Collector struct {
	stageLog[ServeTrace]
	now  func() time.Time
	pool sync.Pool
	ids  atomic.Int64

	outcomeHist map[string]*stats.Histogram // fixed keys; read-only after init
	dbReads     *stats.Histogram
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
		outcomeHist: make(map[string]*stats.Histogram, len(spanOutcomes)),
		dbReads:     stats.NewHistogram(dbReadBounds...),
	}
	c.init(serveStageNames, serveLatencyBounds, spanRingSize)
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

// observe records the finished trace into the histograms and the ring.
func (c *Collector) observe(tr *ServeTrace) {
	if h := c.outcomeHist[tr.Outcome]; h != nil {
		h.Observe(tr.Total().Seconds())
	}
	if !tr.Times[SpanRender].IsZero() {
		c.dbReads.Observe(float64(tr.DBReads))
	}
	c.record(tr.Times[:], tr)
}

// registerMetrics publishes the collector's histogram families into reg.
func (c *Collector) registerMetrics(reg *stats.Registry, labels stats.Labels) {
	c.register(reg, labels,
		family{"serve_stage_seconds", "time spent reaching each serve-path stage"},
		family{"serve_seconds", "end-to-end serve latency across all outcomes"},
		family{"serve_spans_recorded_total", "serve spans recorded"})
	for _, o := range spanOutcomes {
		reg.RegisterHistogram("serve_outcome_seconds",
			"end-to-end serve latency by outcome", withLabel(labels, "outcome", o), c.outcomeHist[o])
	}
	reg.RegisterHistogram("serve_db_reads",
		"database reads per rendered request", labels, c.dbReads)
}

// OutcomeSnapshot summarizes latency for one outcome class.
type OutcomeSnapshot struct {
	Outcome string `json:"outcome"`
	Summary
}

// CollectorSnapshot is the aggregate view served by /debug/serve.
type CollectorSnapshot struct {
	logSnapshot
	DBReadMean float64           `json:"db_reads_mean"`
	Outcomes   []OutcomeSnapshot `json:"outcomes"`
}

// Snapshot returns aggregate serve-path statistics.
func (c *Collector) Snapshot() CollectorSnapshot {
	snap := CollectorSnapshot{logSnapshot: c.snapshot(), DBReadMean: c.dbReads.Mean()}
	for _, o := range spanOutcomes {
		if h := c.outcomeHist[o]; h.Count() > 0 {
			snap.Outcomes = append(snap.Outcomes, OutcomeSnapshot{Outcome: o, Summary: summarize(h)})
		}
	}
	return snap
}
