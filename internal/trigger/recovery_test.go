package trigger

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/odg"
)

// plant is the recovery-test fixture: db -> engine -> cache, with monitors
// constructed explicitly so a test can crash one and start a successor from
// its checkpoint.
type plant struct {
	db     *db.DB
	cache  *cache.Cache
	engine *core.Engine
}

func newPlant(t *testing.T, rows int) *plant {
	t.Helper()
	d := db.New("t")
	d.CreateTable("results")
	c := cache.New("t")
	g := odg.New()
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
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
	p := &plant{db: d, cache: c, engine: e}
	for i := 0; i < rows; i++ {
		row := fmt.Sprintf("ev%d", i)
		key := cache.Key("/page/" + row)
		e.RegisterObject(key, []odg.NodeID{odg.NodeID(db.RowID("results", row))})
		c.Put(&cache.Object{Key: key, Value: []byte("initial")})
	}
	return p
}

func (p *plant) commit(t *testing.T, row, score string) int64 {
	t.Helper()
	tx, err := p.db.Commit(p.db.NewTx().Put("results", row, map[string]string{"score": score}))
	if err != nil {
		t.Fatal(err)
	}
	return tx.LSN
}

func waitDone(t *testing.T, m *Monitor) {
	t.Helper()
	select {
	case <-m.done:
	case <-time.After(5 * time.Second):
		t.Fatal("monitor did not stop")
	}
}

// TestCrashRecoveryZeroLoss is the paper's core availability claim for the
// trigger monitor: a crash mid-stream loses nothing, because the successor
// replays the change log from the crashed monitor's checkpoint.
func TestCrashRecoveryZeroLoss(t *testing.T) {
	p := newPlant(t, 5)
	ctx := context.Background()

	crashed := false
	hook := func(lsn int64) bool {
		if !crashed && lsn == 3 {
			crashed = true
			return true
		}
		return false
	}
	m1 := New(Config{Name: "t", DB: p.db, Engine: p.engine},
		WithCrashHook(hook))
	if err := m1.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// Two clean transactions, each fully propagated before the next.
	p.commit(t, "ev0", "s0")
	m1.Flush()
	p.commit(t, "ev1", "s1")
	m1.Flush()
	// The third batch (LSN 3) crashes the monitor before propagation.
	p.commit(t, "ev2", "s2")
	waitDone(t, m1)

	if !errors.Is(m1.Err(), ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", m1.Err())
	}
	if st := m1.Stats(); st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if cp := m1.Checkpoint(); cp != 2 {
		t.Fatalf("checkpoint = %d, want 2 (last fully propagated batch)", cp)
	}
	if obj, _ := p.cache.Peek("/page/ev2"); string(obj.Value) != "initial" {
		t.Fatalf("crashed batch propagated anyway: %q", obj.Value)
	}

	// More commits land while the monitor is down.
	p.commit(t, "ev3", "s3")
	p.commit(t, "ev4", "s4")

	// The successor starts from the checkpoint and replays LSN 3..5.
	m2 := New(Config{Name: "t", DB: p.db, Engine: p.engine, StartLSN: m1.Checkpoint()})
	if err := m2.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m2.Shutdown(ctx) }()
	m2.Flush()

	if got := m2.LastLSN(); got != p.db.LSN() {
		t.Fatalf("successor LSN = %d, master = %d", got, p.db.LSN())
	}
	if st := m2.Stats(); st.Replayed != 3 {
		t.Fatalf("replayed = %d, want 3 (LSN 3..5)", st.Replayed)
	}
	for i := 0; i < 5; i++ {
		key := cache.Key(fmt.Sprintf("/page/ev%d", i))
		obj, ok := p.cache.Peek(key)
		if !ok || string(obj.Value) != fmt.Sprintf("s%d", i) {
			t.Fatalf("page %s = %v %q after recovery", key, ok, obj.Value)
		}
	}
}

// TestFlushReturnsWhenMonitorCrashes guards callers blocked in Flush: a
// crash mid-batch must still release them instead of hanging forever.
func TestFlushReturnsWhenMonitorCrashes(t *testing.T) {
	p := newPlant(t, 1)
	// The hook holds the commit's batch while Flush is called, then
	// crashes the monitor.
	entered := make(chan struct{})
	release := make(chan struct{})
	m := New(Config{Name: "t", DB: p.db, Engine: p.engine},
		WithCrashHook(func(int64) bool {
			close(entered)
			<-release
			return true
		}))
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.commit(t, "ev0", "s0")
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("monitor never propagated the commit")
	}

	done := make(chan struct{})
	go func() { m.Flush(); close(done) }()
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Flush hung across a monitor crash")
	}
	waitDone(t, m)
	if !errors.Is(m.Err(), ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", m.Err())
	}
}

// TestStartLSNSkipsAlreadyPropagatedTransactions: a successor must not
// re-propagate batches its predecessor completed (replay is from the
// checkpoint, not from zero).
func TestStartLSNSkipsAlreadyPropagatedTransactions(t *testing.T) {
	p := newPlant(t, 2)
	p.commit(t, "ev0", "old")
	p.commit(t, "ev1", "new")

	m := New(Config{Name: "t", DB: p.db, Engine: p.engine, StartLSN: 1})
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Shutdown(context.Background()) }()
	m.Flush()

	if st := m.Stats(); st.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", st.Replayed)
	}
	// LSN 1's page was never propagated by this monitor.
	if obj, _ := p.cache.Peek("/page/ev0"); string(obj.Value) != "initial" {
		t.Fatalf("pre-checkpoint batch replayed: %q", obj.Value)
	}
	if obj, _ := p.cache.Peek("/page/ev1"); string(obj.Value) != "new" {
		t.Fatalf("post-checkpoint batch not replayed: %q", obj.Value)
	}
}

// TestShutdownIsIdempotentAndBounded: Shutdown twice is fine, and a
// cancelled context bounds the wait.
func TestShutdownIsIdempotentAndBounded(t *testing.T) {
	p := newPlant(t, 1)
	m := New(Config{Name: "t", DB: p.db, Engine: p.engine})
	ctx := context.Background()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Err() != nil {
		t.Fatalf("clean shutdown left err = %v", m.Err())
	}
}

// TestOnCrashCallbackFiresAfterDone: supervisors rely on the callback
// running after Done() is observable so a restart can read the checkpoint.
func TestOnCrashCallbackFiresAfterDone(t *testing.T) {
	p := newPlant(t, 1)
	notified := make(chan error, 1)
	m := New(Config{Name: "t", DB: p.db, Engine: p.engine},
		WithCrashHook(func(int64) bool { return true }),
		WithOnCrash(func(err error) { notified <- err }))
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.commit(t, "ev0", "s0")
	select {
	case err := <-notified:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("callback err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnCrash never fired")
	}
	// Done must already be closed when the callback runs.
	select {
	case <-m.done:
	default:
		t.Fatal("OnCrash fired before Done closed")
	}
}
