package trigger

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/odg"
	"dupserve/internal/trace"
)

// harness wires db -> monitor -> engine -> cache with a generator that
// renders row contents, so tests observe end-to-end freshness.
type harness struct {
	db      *db.DB
	cache   *cache.Cache
	engine  *core.Engine
	monitor *Monitor
	renders *sync.Map // key -> count
}

func newHarness(t *testing.T, opts ...Option) *harness {
	t.Helper()
	d := db.New("t")
	d.CreateTable("results")
	c := cache.New("t")
	renders := &sync.Map{}
	g := odg.New()
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		n, _ := renders.LoadOrStore(string(key), new(int))
		*(n.(*int))++
		row, ok, err := d.Get("results", string(key)[len("/page/"):])
		if err != nil {
			return nil, err
		}
		body := "gone"
		if ok {
			body = row.Cols["score"]
		}
		return &cache.Object{Key: key, Value: []byte(body), Version: version}, nil
	}
	e := core.NewEngine(g, c, core.WithGenerator(gen))
	h := &harness{db: d, cache: c, engine: e, renders: renders}
	h.monitor = startMonitor(t, d, e, opts...)
	return h
}

// startMonitor constructs a monitor, starts it, and registers shutdown.
func startMonitor(t testing.TB, d *db.DB, e *core.Engine, opts ...Option) *Monitor {
	t.Helper()
	m := New(Config{DB: d, Engine: e}, opts...)
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Shutdown(context.Background()) })
	return m
}

// withMaxPending sets the monitor's batch cap exactly as Config.MaxPending
// does, so the option-based harness can vary it.
func withMaxPending(n int) Option {
	return func(m *Monitor) { m.maxPending = n }
}

// TestMaxPendingFromConfig: Config.MaxPending sets the batch cap, and an
// unset one leaves the default.
func TestMaxPendingFromConfig(t *testing.T) {
	if m := New(Config{MaxPending: 5}); m.maxPending != 5 {
		t.Fatalf("maxPending = %d, want 5", m.maxPending)
	}
	if m := New(Config{}); m.maxPending != defaultMaxPending {
		t.Fatalf("maxPending = %d, want the default %d", m.maxPending, defaultMaxPending)
	}
}

// registerPage declares /page/<row> depending on db:results:<row> and
// primes the cache.
func (h *harness) registerPage(t *testing.T, row string) {
	t.Helper()
	key := cache.Key("/page/" + row)
	h.engine.RegisterObject(key, []odg.NodeID{odg.NodeID(db.RowID("results", row))})
	h.cache.Put(&cache.Object{Key: key, Value: []byte("initial")})
}

func (h *harness) commit(t *testing.T, row, score string) {
	t.Helper()
	if _, err := h.db.Commit(h.db.NewTx().Put("results", row, map[string]string{"score": score})); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndUpdateInPlace(t *testing.T) {
	h := newHarness(t)
	h.registerPage(t, "ev1")
	h.commit(t, "ev1", "9.81")
	h.monitor.Flush()
	obj, ok := h.cache.Peek("/page/ev1")
	if !ok {
		t.Fatal("page missing from cache")
	}
	if string(obj.Value) != "9.81" {
		t.Fatalf("page = %q, want fresh score", obj.Value)
	}
	if obj.Version != h.db.LSN() {
		t.Fatalf("version = %d, want %d", obj.Version, h.db.LSN())
	}
}

func TestUnrelatedChangeDoesNotTouchPage(t *testing.T) {
	h := newHarness(t)
	h.registerPage(t, "ev1")
	h.commit(t, "ev-other", "1")
	h.monitor.Flush()
	obj, _ := h.cache.Peek("/page/ev1")
	if string(obj.Value) != "initial" {
		t.Fatalf("unrelated change regenerated page: %q", obj.Value)
	}
	if n, ok := h.renders.Load("/page/ev1"); ok {
		t.Fatalf("page rendered %d times for unrelated change", *(n.(*int)))
	}
}

func TestBatchingCoalescesDuplicateRows(t *testing.T) {
	// Ten rapid updates to the same row that pile up while the monitor is
	// busy must cause exactly one regeneration (the batch dedupes changed
	// vertices).
	h, hold := newHeldHarness(t)
	h.registerPage(t, "ev1")
	hold.pileUp(t, h, 10)
	hold.Release()
	h.monitor.Flush()
	n, _ := h.renders.Load("/page/ev1")
	if *(n.(*int)) != 2 {
		t.Fatalf("renders = %d, want 2 (one for the waking commit, one for the backlog)", *(n.(*int)))
	}
	obj, _ := h.cache.Peek("/page/ev1")
	if string(obj.Value) != "9" {
		t.Fatalf("page = %q, want final score", obj.Value)
	}
	st := h.monitor.Stats()
	if st.Batches != 2 || st.Transactions != 11 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBatchSizeTriggersPropagation: a batch that comes out full triggers
// the next propagation at once, so a backlog larger than MaxPending drains
// without Flush.
func TestBatchSizeTriggersPropagation(t *testing.T) {
	h, hold := newHeldHarness(t, withMaxPending(3))
	h.registerPage(t, "ev1")
	hold.pileUp(t, h, 6)
	hold.Release()
	// No Flush: the full batches alone must drain the backlog. Poll for
	// effect.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if obj, ok := h.cache.Peek("/page/ev1"); ok && string(obj.Value) == "5" {
			if got, want := hold.batchLSNs(), []int64{1, 4, 7}; !reflect.DeepEqual(got, want) {
				t.Fatalf("batch LSNs = %v, want %v", got, want)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("full-batch propagation never fired")
}

// TestBatchWindowTriggersPropagation: with no window to wait out, a lone
// commit propagates on arrival, without Flush.
func TestBatchWindowTriggersPropagation(t *testing.T) {
	h := newHarness(t)
	h.registerPage(t, "ev1")
	h.commit(t, "ev1", "42")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if obj, ok := h.cache.Peek("/page/ev1"); ok && string(obj.Value) == "42" {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("arrival propagation never fired")
}

// TestDeprecatedBatchWindowIgnored pins that Config.BatchWindow holds
// nothing back: even under an hour-long window a lone commit propagates on
// arrival, without Flush.
func TestDeprecatedBatchWindowIgnored(t *testing.T) {
	p := newPlant(t, 1)
	m := New(Config{DB: p.db, Engine: p.engine, BatchWindow: time.Hour})
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Shutdown(context.Background()) })
	p.commit(t, "ev0", "s0")
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if obj, _ := p.cache.Peek("/page/ev0"); string(obj.Value) == "s0" {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("lone commit not propagated within 1s under BatchWindow: time.Hour")
}

func TestShutdownDrainsPending(t *testing.T) {
	h, hold := newHeldHarness(t)
	h.registerPage(t, "ev1")
	hold.pileUp(t, h, 2)
	// Shut down while the backlog still waits on the feed: the monitor
	// must propagate it before it stops.
	errc := make(chan error, 1)
	go func() { errc <- h.monitor.Shutdown(context.Background()) }()
	hold.Release()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	obj, _ := h.cache.Peek("/page/ev1")
	if string(obj.Value) != "1" {
		t.Fatalf("pending backlog lost on Shutdown: %q", obj.Value)
	}
	if st := h.monitor.Stats(); st.Transactions != 3 {
		t.Fatalf("transactions = %d, want 3", st.Transactions)
	}
}

func TestShutdownIdempotentAndFlushAfterShutdown(t *testing.T) {
	h := newHarness(t)
	if err := h.monitor.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := h.monitor.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.monitor.Flush() // must not hang
}

func TestCustomIndexer(t *testing.T) {
	var indexed []string
	var mu sync.Mutex
	ix := func(c db.Change) []odg.NodeID {
		mu.Lock()
		indexed = append(indexed, c.Key)
		mu.Unlock()
		return []odg.NodeID{odg.NodeID(c.ChangeID()), "extra:vertex"}
	}
	d := db.New("t")
	d.CreateTable("results")
	c := cache.New("t")
	g := odg.New()
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return &cache.Object{Key: key, Value: []byte("x"), Version: version}, nil
	}
	e := core.NewEngine(g, c, core.WithGenerator(gen))
	e.RegisterObject("/extra", []odg.NodeID{"extra:vertex"})
	m := startMonitor(t, d, e, WithIndexer(ix))
	if _, err := d.Commit(d.NewTx().Put("results", "k", nil)); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if !c.Contains("/extra") {
		t.Fatal("custom indexer vertex did not propagate")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(indexed) != 1 || indexed[0] != "k" {
		t.Fatalf("indexed = %v", indexed)
	}
}

func TestLatencyMeasured(t *testing.T) {
	base := time.Date(1998, 2, 13, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	now := base
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	d := db.New("t", db.WithClock(clock))
	d.CreateTable("results")
	c := cache.New("t")
	g := odg.New()
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return &cache.Object{Key: key, Value: []byte("x"), Version: version}, nil
	}
	e := core.NewEngine(g, c, core.WithGenerator(gen))
	// The commit propagates on arrival; hold it in the crash hook until the
	// clock has moved.
	advanced := make(chan struct{})
	m := startMonitor(t, d, e, WithClock(clock),
		WithCrashHook(func(int64) bool { <-advanced; return false }))

	if _, err := d.Commit(d.NewTx().Put("results", "k", nil)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = base.Add(3 * time.Second) // propagation "takes" 3s of simulated time
	mu.Unlock()
	close(advanced)
	m.Flush()
	st := m.Stats()
	if st.LatencyMax < 2.9 || st.LatencyMax > 3.1 {
		t.Fatalf("latency max = %v, want ~3s", st.LatencyMax)
	}
	// The paper's freshness bound: within 60 seconds.
	if st.LatencyMax > 60 {
		t.Fatal("freshness bound violated")
	}
}

func TestLastLSNAdvances(t *testing.T) {
	h := newHarness(t)
	h.registerPage(t, "ev1")
	for i := 0; i < 5; i++ {
		h.commit(t, "ev1", "s")
	}
	h.monitor.Flush()
	if got := h.monitor.LastLSN(); got != 5 {
		t.Fatalf("LastLSN = %d, want 5", got)
	}
}

func TestManyPagesPerUpdate(t *testing.T) {
	// A cross-country result update affecting 128 pages (paper, §3.1),
	// flowing through the full trigger pipeline.
	h := newHarness(t)
	key := func(i int) cache.Key { return cache.Key(fmt.Sprintf("/cc/p%d", i)) }
	gen := odg.NodeID(db.RowID("results", "cc:ev1"))
	for i := 0; i < 128; i++ {
		h.engine.RegisterObject(key(i), []odg.NodeID{gen})
	}
	// Override generator pages aren't /page/-shaped; they'd fail the row
	// parse. Re-register with a generator-agnostic row instead:
	// the harness generator slices "/page/", so use register via harness.
	// Simpler: commit the row and verify affected count via engine stats.
	h.commit(t, "cc:ev1", "1")
	h.monitor.Flush()
	st := h.monitor.Stats()
	if st.PagesUpdated+st.Invalidations < 128 {
		t.Fatalf("pages touched = %d, want >= 128 (stats %+v)", st.PagesUpdated+st.Invalidations, st)
	}
}

// TestConcurrentCommittersSingleMonitor: four committers race one monitor
// whose small MaxPending splits every backlog they build; every
// transaction still propagates exactly once, in LSN order.
func TestConcurrentCommittersSingleMonitor(t *testing.T) {
	h := newHarness(t, withMaxPending(8))
	h.registerPage(t, "ev1")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				h.commit(t, "ev1", fmt.Sprintf("%d-%d", w, i))
			}
		}(w)
	}
	wg.Wait()
	h.monitor.Flush()
	st := h.monitor.Stats()
	if st.Transactions != 100 {
		t.Fatalf("transactions = %d, want 100", st.Transactions)
	}
	if h.monitor.LastLSN() != 100 {
		t.Fatalf("LastLSN = %d, want 100", h.monitor.LastLSN())
	}
}

// TestTracePropagationStages asserts that every committed transaction's
// trace contains exactly the stages commit -> cdc -> batch -> dup ->
// render -> push with monotonically non-decreasing boundary timestamps.
// The batched cases hold the monitor inside a first, lone commit's
// propagation while a backlog piles up behind it.
func TestTracePropagationStages(t *testing.T) {
	cases := []struct {
		name    string
		opts    []Option
		backlog int // commits piled up behind the first; 0 = no hold
	}{
		{"unbatched single tx", nil, 0},
		// The backlog coalesces into one batch.
		{"windowed batch", nil, 4},
		// The backlog leaves in MaxPending slices: 2+1.
		{"size-triggered batch", []Option{withMaxPending(2)}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.New()
			opts := append(append([]Option(nil), tc.opts...), WithTracer(tr))
			commits := 1 + tc.backlog
			if tc.backlog == 0 {
				h := newHarness(t, opts...)
				h.registerPage(t, "ev1")
				h.commit(t, "ev1", "score")
				h.monitor.Flush()
			} else {
				h, hold := newHeldHarness(t, opts...)
				h.registerPage(t, "ev1")
				hold.pileUp(t, h, tc.backlog)
				hold.Release()
				h.monitor.Flush()
			}

			if got := tr.Recorded(); got != int64(commits) {
				t.Fatalf("traces recorded = %d, want %d (one per transaction)", got, commits)
			}
			if tr.InFlight() != 0 {
				t.Fatalf("in-flight after flush = %d, want 0", tr.InFlight())
			}
			seenIDs := make(map[int64]bool)
			for _, got := range tr.Recent(0) {
				if got.ID == 0 {
					t.Fatal("trace ID not minted at commit")
				}
				if seenIDs[got.ID] {
					t.Fatalf("duplicate trace ID %d", got.ID)
				}
				seenIDs[got.ID] = true
				if got.LSN <= 0 {
					t.Fatalf("trace LSN = %d, want > 0", got.LSN)
				}
				if got.Vertices < 1 || got.FanOut < 1 {
					t.Fatalf("trace touched vertices=%d fanOut=%d, want >= 1 each", got.Vertices, got.FanOut)
				}
				for s := trace.Stage(0); s < trace.NumStages; s++ {
					ts := got.Times[s]
					if ts.IsZero() {
						t.Fatalf("stage %v has no timestamp", s)
					}
					if s > 0 && ts.Before(got.Times[s-1]) {
						t.Fatalf("stage %v at %v precedes %v at %v", s, ts, s-1, got.Times[s-1])
					}
				}
				if got.Total() < 0 {
					t.Fatalf("negative total latency %v", got.Total())
				}
			}
		})
	}
}

// TestTraceSLOViolation pins the database clock in the past and the
// monitor clock in the future so a propagation "takes" 70 simulated
// seconds, violating the 60-second freshness SLO.
func TestTraceSLOViolation(t *testing.T) {
	base := time.Unix(5000, 0)
	d := db.New("t", db.WithClock(func() time.Time { return base }))
	d.CreateTable("results")
	c := cache.New("t")
	g := odg.New()
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return &cache.Object{Key: key, Value: []byte("x"), Version: version}, nil
	}
	e := core.NewEngine(g, c, core.WithGenerator(gen))
	tr := trace.New(trace.WithSLO(60 * time.Second))
	m := startMonitor(t, d, e, WithTracer(tr),
		WithClock(func() time.Time { return base.Add(70 * time.Second) }))

	e.RegisterObject("/page/ev1", []odg.NodeID{odg.NodeID(db.RowID("results", "ev1"))})
	if _, err := d.Commit(d.NewTx().Put("results", "ev1", map[string]string{"score": "1"})); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if got := tr.Violations(); got != 1 {
		t.Fatalf("SLO violations = %d, want 1 (70s > 60s SLO)", got)
	}
	if tr.Recorded() != 1 {
		t.Fatalf("recorded = %d, want 1", tr.Recorded())
	}
}

// TestBatchHistograms verifies the monitor feeds its batching histograms:
// one batch-size and one batch-wait observation per propagated batch.
func TestBatchHistograms(t *testing.T) {
	tr := trace.New()
	h, hold := newHeldHarness(t, WithTracer(tr))
	h.registerPage(t, "ev1")
	hold.pileUp(t, h, 3)
	hold.Release()
	h.monitor.Flush()

	sizes := h.monitor.BatchSizes()
	waits := h.monitor.BatchWait()
	if sizes.Count() != 2 {
		t.Fatalf("size observations = %d, want 2 (the lone commit, then the backlog)", sizes.Count())
	}
	if sizes.Count() != waits.Count() {
		t.Fatalf("size observations = %d, wait observations = %d, want equal",
			sizes.Count(), waits.Count())
	}
	batches := h.monitor.Stats().Batches
	if sizes.Count() != batches {
		t.Fatalf("size observations = %d, batches = %d, want one per batch", sizes.Count(), batches)
	}
	// Batches of 1 and 3.
	if sizes.Mean() != 2 {
		t.Fatalf("mean batch size = %v, want 2", sizes.Mean())
	}
}
