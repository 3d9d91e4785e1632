// Package trigger implements the trigger monitor (section 2 and figure 6 of
// the paper): the component that watches the database for changes and
// drives Data Update Propagation.
//
// In the 1998 deployment, each SP2's 8-way SMP ran the triggering, caching
// and page-rendering code, deliberately separated from the uniprocessors
// serving requests so that bursts of updates never degraded serving
// latency. The Monitor mirrors that structure: it consumes the database's
// change-data-capture feed on its own goroutine, batches transactions, maps
// each changed row to its ODG vertices, and hands the batch to the DUP
// engine, which re-renders affected pages and distributes them to the
// serving caches.
//
// Batching is self-clocked: there is no timer. An idle monitor that
// receives a transaction absorbs whatever else is already on the feed (up
// to MaxPending, default 128) and propagates at once. Transactions that
// arrive while a batch propagates queue on the feed and form the next
// batch. A lone commit therefore never waits, while a commit burst still
// coalesces into batches as large as the backlog the previous propagation
// left behind.
//
// Availability: the monitor checkpoints the highest LSN it has propagated
// (LastLSN). If it crashes — organically or via an injected fault hook — a
// supervisor restarts it with Config.StartLSN set to the checkpoint, and
// Start replays the database's retained log from there before consuming
// the live feed, so no committed transaction is ever dropped. The paper's
// freshness guarantee survives the restart: pages are at worst delayed,
// never lost.
//
// Freshness — the paper's "reflecting current events within a maximum of
// sixty seconds" — is measured per transaction as commit-to-propagated
// latency and exposed via Stats.
package trigger

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/odg"
	"dupserve/internal/stats"
	"dupserve/internal/trace"
)

// Indexer maps one database change to the ODG vertex IDs that should be
// treated as changed. The default indexer returns just the row vertex; the
// site layer supplies one that also emits prefix-index vertices for inserts
// and deletes so scan-based pages refresh on membership changes.
type Indexer func(c db.Change) []odg.NodeID

// DefaultIndexer maps a change to its row vertex only.
func DefaultIndexer(c db.Change) []odg.NodeID {
	return []odg.NodeID{odg.NodeID(c.ChangeID())}
}

// CrashHook decides, per batch about to propagate, whether the monitor
// crashes instead (fault injection). lsn is the batch's highest LSN. A
// crash drops the batch unpropagated, exactly like a process death between
// CDC consumption and propagation; recovery replays it from the log.
type CrashHook func(lsn int64) bool

// ErrCrashed is wrapped by the error a crashed monitor reports from Err.
var ErrCrashed = errors.New("trigger: monitor crashed")

// Config describes a Monitor. DB and Engine are required; everything else
// has working defaults.
type Config struct {
	// Name appears in diagnostics and fault identities ("tokyo").
	Name string
	// DB is the database whose CDC feed the monitor consumes.
	DB *db.DB
	// Engine is the DUP engine propagations are handed to.
	Engine *core.Engine
	// StartLSN is the recovery checkpoint: Start replays the database's
	// retained log for every transaction with LSN > StartLSN before
	// consuming the live feed. Zero starts from the live feed only (plus
	// any log the database retains, which for a fresh monitor is the
	// correct "everything so far already propagated by someone" choice of
	// StartLSN = DB.LSN(); pass that explicitly when taking over).
	StartLSN int64
	// Deprecated: BatchWindow is ignored. Batching is self-clocked (see the
	// package documentation); no timer holds a batch back. The field stays
	// only because the benchmark plant (bench/plant.go) still sets it.
	BatchWindow time.Duration
	// MaxPending caps the transactions in one batch (default 128). Under a
	// commit burst the backlog on the feed drains in MaxPending slices, one
	// propagation each. A merged batch's changed-vertex frontiers
	// deduplicate, so a burst costs one ODG traversal over the union
	// instead of one per transaction: propagation work grows sublinearly
	// with burst size.
	MaxPending int
}

// defaultMaxPending is the batch cap when Config.MaxPending is unset.
const defaultMaxPending = 128

// Monitor consumes a CDC feed and drives a DUP engine. Create with New,
// begin with Start, release with Shutdown.
type Monitor struct {
	name       string
	engine     *core.Engine
	indexer    Indexer
	maxPending int
	now        func() time.Time

	database   *db.DB
	startLSN   int64
	feed       <-chan db.Transaction
	cancelFeed func()
	flushC     chan chan struct{}
	done       chan struct{}

	tracer    *trace.Tracer
	crashHook CrashHook
	onCrash   func(err error)
	onReplay  func(count int, upto int64)

	batches     stats.Counter
	txs         stats.Counter
	updated     stats.Counter
	invalidated stats.Counter
	replayed    stats.Counter    // transactions recovered from the log at Start
	crashes     stats.Counter    // injected/organic crashes of this monitor
	coalesced   stats.Counter    // transactions absorbed from the feed backlog
	latency     stats.Summary    // commit -> propagated, seconds
	batchSizes  *stats.Histogram // transactions per propagated batch
	batchWait   *stats.Histogram // arrival of first tx -> flush, seconds

	mu      sync.Mutex
	lastLSN int64
	started bool
	err     error
}

// pendingTx is a CDC transaction waiting in the monitor's batch, stamped
// with its feed-arrival time so propagation traces can separate the
// commit->cdc and cdc->flush stages.
type pendingTx struct {
	tx      db.Transaction
	arrived time.Time
}

// Option configures a Monitor.
type Option func(*Monitor)

// WithIndexer substitutes the change-to-vertex mapping.
func WithIndexer(ix Indexer) Option {
	return func(m *Monitor) { m.indexer = ix }
}

// WithClock substitutes the latency clock.
// It is a test seam: production always runs on the real clock.
func WithClock(now func() time.Time) Option {
	return func(m *Monitor) { m.now = now }
}

// WithTracer records an end-to-end propagation trace (commit -> cdc ->
// batch -> dup -> render -> push) for every transaction into t.
func WithTracer(t *trace.Tracer) Option {
	return func(m *Monitor) { m.tracer = t }
}

// WithCrashHook installs a fault-injection crash decision consulted once
// per batch, before propagation.
func WithCrashHook(h CrashHook) Option {
	return func(m *Monitor) { m.crashHook = h }
}

// WithOnCrash installs a supervisor callback invoked (on the monitor's
// goroutine, after the monitor has fully stopped) when the monitor
// crashes. The callback typically restarts a fresh monitor from
// Checkpoint().
func WithOnCrash(f func(err error)) Option {
	return func(m *Monitor) { m.onCrash = f }
}

// WithOnReplay installs a callback invoked (on the monitor's goroutine)
// after checkpoint replay has propagated: count transactions were recovered
// from the retained log, the highest carrying LSN upto. The observability
// journal wires in here; the callback must not block.
func WithOnReplay(f func(count int, upto int64)) Option {
	return func(m *Monitor) { m.onReplay = f }
}

// New returns an unstarted Monitor over cfg. Call Start to begin
// propagating.
func New(cfg Config, opts ...Option) *Monitor {
	m := &Monitor{
		name:       cfg.Name,
		database:   cfg.DB,
		engine:     cfg.Engine,
		startLSN:   cfg.StartLSN,
		indexer:    DefaultIndexer,
		maxPending: defaultMaxPending,
		now:        time.Now,
		flushC:     make(chan chan struct{}),
		done:       make(chan struct{}),
		lastLSN:    cfg.StartLSN,
		batchSizes: stats.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256),
		batchWait: stats.NewHistogram(0.0001, 0.00025, 0.0005, 0.001, 0.0025,
			0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5),
	}
	if cfg.MaxPending > 0 {
		m.maxPending = cfg.MaxPending
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Name returns the monitor's diagnostic name.
func (m *Monitor) Name() string { return m.name }

// Start subscribes to the database's CDC feed, replays the retained log
// from the checkpoint (Config.StartLSN), and begins propagating.
// Cancelling ctx initiates the same orderly drain as Shutdown. Start may
// be called once per Monitor.
func (m *Monitor) Start(ctx context.Context) error {
	if m.database == nil || m.engine == nil {
		return errors.New("trigger: Config.DB and Config.Engine are required")
	}
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return errors.New("trigger: monitor already started")
	}
	m.started = true
	m.mu.Unlock()

	// Subscribe first, then snapshot the log: a transaction committed
	// between the two appears in both and is deduplicated by LSN in loop.
	m.feed, m.cancelFeed = m.database.Subscribe(256)
	replay := m.database.LogSince(m.startLSN)
	go m.loop(replay)
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				m.cancelFeed()
			case <-m.done:
			}
		}()
	}
	return nil
}

// Shutdown cancels the feed subscription, waits for the final propagation
// to drain, and returns. ctx bounds the drain. Safe to call more than
// once and before Start.
func (m *Monitor) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	started := m.started
	m.mu.Unlock()
	if !started {
		return nil
	}
	m.cancelFeed()
	if ctx == nil {
		<-m.done
		return nil
	}
	select {
	case <-m.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("trigger: shutdown of %q: %w", m.name, ctx.Err())
	}
}

// loop is the monitor goroutine: replay the checkpointed log, then batch
// and propagate the live feed.
func (m *Monitor) loop(replay []db.Transaction) {
	var crashed bool
	defer func() {
		if crashed && m.onCrash != nil {
			m.onCrash(m.Err())
		}
	}()
	defer close(m.done)

	var pending []pendingTx
	admit := func(tx db.Transaction) {
		arrived := m.now()
		if m.tracer != nil {
			m.tracer.Arrive(tx.TraceID, tx.Commit)
		}
		pending = append(pending, pendingTx{tx: tx, arrived: arrived})
	}
	propagate := func() bool {
		if len(pending) == 0 {
			return true
		}
		ok := m.propagate(pending)
		pending = pending[:0]
		return ok
	}
	replayMax := int64(0)
	// absorb drains transactions already delivered on the feed into the
	// current batch, up to maxPending. Under a commit burst this coalesces
	// what would have been many consecutive batches into one: the merged
	// changed-vertex sets deduplicate in propagate, so the DUP traversal
	// cost grows with the union of the frontiers, not the transaction
	// count. Returns true if the feed closed while draining.
	absorb := func() (closed bool) {
		for len(pending) < m.maxPending {
			select {
			case tx, ok := <-m.feed:
				if !ok {
					return true
				}
				if tx.LSN > replayMax {
					admit(tx)
					m.coalesced.Inc()
				}
			default:
				return false
			}
		}
		return false
	}
	// drain is the one propagation step: absorb the backlog, propagate,
	// and repeat while the batch came out full, so a backlog larger than
	// maxPending leaves in maxPending slices. Returns true when the monitor
	// must stop because it crashed or its feed closed.
	drain := func() (stop bool) {
		for {
			closed := absorb()
			full := len(pending) >= m.maxPending
			if !propagate() {
				crashed = true
				return true
			}
			if closed || !full {
				return closed
			}
		}
	}

	// Recovery replay: everything the database retains past the
	// checkpoint propagates as one batch before live consumption. A crash
	// hook can fire here too — a monitor that crashes during recovery
	// recovers again from the same checkpoint.
	if len(replay) > 0 {
		for _, tx := range replay {
			admit(tx)
		}
		replayMax = replay[len(replay)-1].LSN
		m.replayed.Add(int64(len(replay)))
		if !propagate() {
			crashed = true
			return
		}
		if m.onReplay != nil {
			m.onReplay(len(replay), replayMax)
		}
	}

	// Live consumption. Nothing is pending between iterations: an arrival
	// wakes the monitor, which drains at once, and whatever commits during
	// that propagation waits on the feed to become the next batch.
	for {
		select {
		case tx, ok := <-m.feed:
			if !ok {
				return
			}
			if tx.LSN <= replayMax {
				continue // already recovered from the log
			}
			admit(tx)
			if drain() {
				return
			}
		case ack := <-m.flushC:
			// Flush (below) re-issues the request until every transaction
			// committed before the call has flowed through the feed's
			// internal queue and been propagated.
			stop := drain()
			close(ack)
			if stop {
				return
			}
		}
	}
}

// crash records a crash at the given batch LSN and tears the monitor down
// without propagating. Returns false for propagate's convenience.
func (m *Monitor) crash(lsn int64) bool {
	m.crashes.Inc()
	m.mu.Lock()
	m.err = fmt.Errorf("%w: %q at batch LSN %d (checkpoint %d)",
		ErrCrashed, m.name, lsn, m.lastLSN)
	m.mu.Unlock()
	m.cancelFeed()
	return false
}

// propagate maps a batch of transactions to changed vertices and runs one
// DUP propagation stamped with the batch's highest LSN. Returns false if
// the monitor crashed instead of propagating.
func (m *Monitor) propagate(batch []pendingTx) bool {
	flush := m.now()
	seen := make(map[odg.NodeID]struct{})
	var changed []odg.NodeID
	var maxLSN int64
	for _, p := range batch {
		if p.tx.LSN > maxLSN {
			maxLSN = p.tx.LSN
		}
		for _, c := range p.tx.Changes {
			for _, id := range m.indexer(c) {
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					changed = append(changed, id)
				}
			}
		}
	}
	if m.crashHook != nil && m.crashHook(maxLSN) {
		return m.crash(maxLSN)
	}
	res := m.engine.OnChange(maxLSN, changed...)

	m.batches.Inc()
	m.txs.Add(int64(len(batch)))
	m.updated.Add(int64(res.Updated))
	m.invalidated.Add(int64(res.Invalidated))
	m.batchSizes.Observe(float64(len(batch)))
	m.batchWait.Observe(flush.Sub(batch[0].arrived).Seconds())
	end := m.now()
	for _, p := range batch {
		m.latency.Observe(end.Sub(p.tx.Commit).Seconds())
	}
	if m.tracer != nil {
		// Derive wall-clock stage boundaries from the engine's phase
		// durations. Render/push are cumulative across workers, so clamp
		// each boundary to the observed end of the propagation.
		dupDone := clampTime(flush.Add(res.GraphDur), end)
		renderDone := clampTime(dupDone.Add(res.RenderDur), end)
		for _, p := range batch {
			tr := trace.Trace{
				ID:              p.tx.TraceID,
				LSN:             p.tx.LSN,
				Vertices:        res.Changed,
				FanOut:          res.Affected,
				Updated:         res.Updated,
				Invalidated:     res.Invalidated,
				FragmentRenders: res.FragmentRenders,
				FragmentReuses:  res.FragmentReuses,
			}
			tr.Times[trace.StageCommit] = p.tx.Commit
			tr.Times[trace.StageCDC] = p.arrived
			tr.Times[trace.StageBatch] = flush
			tr.Times[trace.StageDUP] = dupDone
			tr.Times[trace.StageRender] = renderDone
			tr.Times[trace.StagePush] = end
			m.tracer.Record(tr)
		}
	}
	m.mu.Lock()
	if maxLSN > m.lastLSN {
		m.lastLSN = maxLSN
	}
	m.mu.Unlock()
	return true
}

// clampTime returns t, or limit if t is after it.
func clampTime(t, limit time.Time) time.Time {
	if t.After(limit) {
		return limit
	}
	return t
}

// Flush synchronously propagates everything committed before the call,
// returning once those propagations have completed. Tests and the
// simulator use it for deterministic sequencing. If the monitor has been
// stopped or has crashed, Flush returns immediately.
func (m *Monitor) Flush() {
	target := m.database.LSN()
	backoff := 50 * time.Microsecond
	for {
		ack := make(chan struct{})
		select {
		case m.flushC <- ack:
			<-ack
		case <-m.done:
			return
		}
		if m.LastLSN() >= target {
			return
		}
		// A transaction committed before the call is still traversing the
		// feed's internal queue. Back off exponentially instead of spinning:
		// each retry doubles the sleep (capped at 5ms), so a briefly-behind
		// feed costs microseconds while a busy one doesn't eat a core.
		time.Sleep(backoff)
		if backoff < 5*time.Millisecond {
			backoff *= 2
		}
	}
}

// LastLSN returns the highest LSN the monitor has propagated — its
// recovery checkpoint.
func (m *Monitor) LastLSN() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastLSN
}

// Checkpoint is LastLSN under its recovery-protocol name: the LSN a
// replacement monitor should be configured with (Config.StartLSN) so that
// replay covers exactly the transactions this monitor never propagated.
func (m *Monitor) Checkpoint() int64 { return m.LastLSN() }

// Err returns the crash error, or nil while the monitor is healthy.
func (m *Monitor) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Done returns a channel closed when the monitor's goroutine has exited
// (shutdown or crash).
func (m *Monitor) Done() <-chan struct{} { return m.done }

// MonitorStats snapshots the monitor's counters.
type MonitorStats struct {
	Batches       int64
	Transactions  int64
	PagesUpdated  int64
	Invalidations int64
	// Replayed counts transactions recovered from the retained log at
	// Start (checkpoint replay after a crash).
	Replayed int64
	// Crashes counts monitor crashes (injected or organic).
	Crashes int64
	// Coalesced counts transactions absorbed from the feed backlog into a
	// batch beyond the one that woke the monitor (the sublinear-burst
	// mechanism).
	Coalesced int64
	// Freshness latency, seconds, commit -> propagated.
	LatencyMean float64
	LatencyP99  float64
	LatencyMax  float64
}

// Stats returns a snapshot of the monitor's counters.
func (m *Monitor) Stats() MonitorStats {
	return MonitorStats{
		Batches:       m.batches.Value(),
		Transactions:  m.txs.Value(),
		PagesUpdated:  m.updated.Value(),
		Invalidations: m.invalidated.Value(),
		Replayed:      m.replayed.Value(),
		Crashes:       m.crashes.Value(),
		Coalesced:     m.coalesced.Value(),
		LatencyMean:   m.latency.Mean(),
		LatencyP99:    m.latency.Percentile(99),
		LatencyMax:    m.latency.Max(),
	}
}

// BatchSizes returns the histogram of transactions per propagated batch.
func (m *Monitor) BatchSizes() *stats.Histogram { return m.batchSizes }

// BatchWait returns the histogram of first-arrival-to-flush wait, seconds.
func (m *Monitor) BatchWait() *stats.Histogram { return m.batchWait }

// RegisterMetrics publishes the monitor's counters and batching histograms
// into a registry. labels (may be nil) are attached to every series.
func (m *Monitor) RegisterMetrics(reg *stats.Registry, labels stats.Labels) {
	reg.RegisterCounter("trigger_batches_total",
		"propagation batches flushed", labels, &m.batches)
	reg.RegisterCounter("trigger_transactions_total",
		"CDC transactions propagated", labels, &m.txs)
	reg.RegisterCounter("trigger_pages_updated_total",
		"pages updated in place by trigger-driven propagations", labels, &m.updated)
	reg.RegisterCounter("trigger_invalidations_total",
		"pages invalidated by trigger-driven propagations", labels, &m.invalidated)
	reg.RegisterCounter("trigger_replayed_transactions_total",
		"transactions recovered from the retained log at monitor start", labels, &m.replayed)
	reg.RegisterCounter("trigger_crashes_total",
		"trigger monitor crashes (injected or organic)", labels, &m.crashes)
	reg.RegisterCounter("trigger_coalesced_total",
		"transactions absorbed from the feed backlog into a batch", labels, &m.coalesced)
	reg.RegisterHistogram("trigger_batch_size_transactions",
		"transactions coalesced per batch", labels, m.batchSizes)
	reg.RegisterHistogram("trigger_batch_wait_seconds",
		"wait from a batch's first CDC arrival to its flush", labels, m.batchWait)
}
