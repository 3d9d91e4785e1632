package db

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCreateTableIdempotent(t *testing.T) {
	d := New("t")
	d.CreateTable("results")
	tx := d.NewTx().Put("results", "r1", map[string]string{"a": "1"})
	if _, err := d.Commit(tx); err != nil {
		t.Fatal(err)
	}
	d.CreateTable("results") // must not wipe rows
	if n := count(t, d, "results"); n != 1 {
		t.Fatalf("Count = %d, want 1", n)
	}
}

func TestGetMissingTable(t *testing.T) {
	d := New("t")
	if _, _, err := d.Get("ghost", "k"); err == nil {
		t.Fatal("expected ErrNoTable")
	}
	if _, err := d.Scan("ghost", ""); err == nil {
		t.Fatal("expected ErrNoTable")
	}
}

func TestCommitAssignsLSNs(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	for i := 1; i <= 3; i++ {
		tx, err := d.Commit(d.NewTx().Put("x", fmt.Sprintf("k%d", i), nil))
		if err != nil {
			t.Fatal(err)
		}
		if tx.LSN != int64(i) {
			t.Fatalf("LSN = %d, want %d", tx.LSN, i)
		}
	}
	if d.LSN() != 3 {
		t.Fatalf("LSN = %d, want 3", d.LSN())
	}
}

func TestCommitEmptyTxNoop(t *testing.T) {
	d := New("t")
	tx, err := d.Commit(d.NewTx())
	if err != nil || tx.LSN != 0 {
		t.Fatalf("empty commit = %+v, %v", tx, err)
	}
	if d.LSN() != 0 {
		t.Fatal("empty commit advanced LSN")
	}
}

func TestCommitUnknownTableAtomic(t *testing.T) {
	d := New("t")
	d.CreateTable("good")
	tx := d.NewTx().
		Put("good", "k", map[string]string{"a": "1"}).
		Put("bad", "k", nil)
	if _, err := d.Commit(tx); err == nil {
		t.Fatal("expected error for unknown table")
	}
	// Nothing may have been applied.
	if n := count(t, d, "good"); n != 0 {
		t.Fatal("failed commit partially applied")
	}
	if d.LSN() != 0 {
		t.Fatal("failed commit advanced LSN")
	}
}

func TestReadRowKeepsColumnsAcrossLaterCommit(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	if _, err := d.Commit(d.NewTx().Put("x", "k", map[string]string{"a": "1", "b": "2"})); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := d.Get("x", "k")
	if !ok {
		t.Fatal("row missing")
	}
	scanned, _ := d.Scan("x", "")
	if _, err := d.Commit(d.NewTx().Put("x", "k", map[string]string{"a": "9"})); err != nil {
		t.Fatal(err)
	}
	// A commit replaces the stored map; rows read before it still see the
	// columns they were read with.
	for _, r := range []Row{got, scanned[0]} {
		if r.LSN != 1 || len(r.Cols) != 2 || r.Cols["a"] != "1" || r.Cols["b"] != "2" {
			t.Fatalf("row read at LSN 1 changed under a later commit: %+v", r)
		}
	}
	if now, _, _ := d.Get("x", "k"); now.LSN != 2 || len(now.Cols) != 1 || now.Cols["a"] != "9" {
		t.Fatalf("Get after rewrite = %+v", now)
	}
}

func TestGetExistingRowZeroAllocs(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	if _, err := d.Commit(d.NewTx().Put("x", "k", map[string]string{"a": "1", "b": "2", "c": "3"})); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok, err := d.Get("x", "k"); !ok || err != nil {
			t.Fatal("row missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("Get of an existing row: %v allocs/op, want 0", allocs)
	}
}

func TestTxPutCopiesCols(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	cols := map[string]string{"a": "1"}
	tx := d.NewTx().Put("x", "k", cols)
	cols["a"] = "mutated"
	if _, err := d.Commit(tx); err != nil {
		t.Fatal(err)
	}
	r, _, _ := d.Get("x", "k")
	if r.Cols["a"] != "1" {
		t.Fatal("Tx.Put aliases caller memory")
	}
}

// TestDelete: a replica applying a shipped OpDelete change drops the row.
func TestDelete(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	if _, err := d.Commit(d.NewTx().Put("x", "k", nil)); err != nil {
		t.Fatal(err)
	}
	del := Transaction{LSN: 2, Changes: []Change{{Table: "x", Key: "k", Op: OpDelete}}}
	if err := d.Apply(del); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Get("x", "k"); ok {
		t.Fatal("deleted row still present")
	}
	if n := count(t, d, "x"); n != 0 {
		t.Fatalf("%d rows after the delete, want 0", n)
	}
}

func TestScanPrefixSorted(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	tx := d.NewTx()
	for _, k := range []string{"ski:2", "ski:1", "skate:1", "luge:1"} {
		tx.Put("x", k, map[string]string{"k": k})
	}
	if _, err := d.Commit(tx); err != nil {
		t.Fatal(err)
	}
	rows, err := d.Scan("x", "ski:")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Key != "ski:1" || rows[1].Key != "ski:2" {
		t.Fatalf("Scan = %v", rows)
	}
	all, _ := d.Scan("x", "")
	if len(all) != 4 {
		t.Fatalf("full scan = %d rows", len(all))
	}
}

func TestSubscribeDeliversInOrder(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	feed, cancel := d.Subscribe(4)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := d.Commit(d.NewTx().Put("x", fmt.Sprintf("k%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 10; i++ {
		tx := <-feed
		if tx.LSN != int64(i) {
			t.Fatalf("feed out of order: got LSN %d, want %d", tx.LSN, i)
		}
	}
}

func TestSubscribeSlowConsumerDoesNotBlockCommit(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	feed, cancel := d.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if _, err := d.Commit(d.NewTx().Put("x", "k", nil)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("commits blocked behind a slow subscriber")
	}
	// Now drain: all 100 must arrive, in order.
	for i := 1; i <= 100; i++ {
		select {
		case tx := <-feed:
			if tx.LSN != int64(i) {
				t.Fatalf("LSN %d, want %d", tx.LSN, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("missing transaction %d", i)
		}
	}
}

func TestSubscribeCancelClosesFeed(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	feed, cancel := d.Subscribe(2)
	cancel()
	cancel() // idempotent
	select {
	case _, ok := <-feed:
		if ok {
			t.Fatal("expected closed feed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("feed not closed after cancel")
	}
	// Commits after cancel must not panic or block.
	if _, err := d.Commit(d.NewTx().Put("x", "k", nil)); err != nil {
		t.Fatal(err)
	}
}

func TestApplyOutOfOrderRejected(t *testing.T) {
	d := New("t")
	if err := d.Apply(Transaction{LSN: 2}); err == nil {
		t.Fatal("expected out-of-order rejection")
	}
	if err := d.Apply(Transaction{LSN: 1, Changes: []Change{{Table: "x", Key: "k", Op: OpPut}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(Transaction{LSN: 1}); err == nil {
		t.Fatal("expected duplicate rejection")
	}
}

func TestApplyAutoCreatesTables(t *testing.T) {
	d := New("t")
	err := d.Apply(Transaction{LSN: 1, Changes: []Change{
		{Table: "new", Key: "k", Op: OpPut, Cols: map[string]string{"a": "1"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r, ok, err := d.Get("new", "k")
	if err != nil || !ok || r.Cols["a"] != "1" {
		t.Fatalf("replicated row = %+v, %v, %v", r, ok, err)
	}
}

func TestLogSince(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	for i := 0; i < 5; i++ {
		if _, err := d.Commit(d.NewTx().Put("x", fmt.Sprintf("k%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	log := d.LogSince(3)
	if len(log) != 2 || log[0].LSN != 4 || log[1].LSN != 5 {
		t.Fatalf("LogSince(3) = %v", log)
	}
	if got := d.LogSince(99); len(got) != 0 {
		t.Fatalf("LogSince(99) = %v", got)
	}
}

func TestChangeID(t *testing.T) {
	c := Change{Table: "results", Key: "ev1"}
	if got := c.ChangeID(); got != "db:results:ev1" {
		t.Fatalf("ChangeID = %q", got)
	}
	if RowID("a", "b") != "db:a:b" {
		t.Fatal("RowID format drift")
	}
}

func TestOpString(t *testing.T) {
	if OpPut.String() != "put" || OpDelete.String() != "delete" {
		t.Fatal("Op.String drift")
	}
}

func TestReplicationCatchUpAndLive(t *testing.T) {
	master := New("master")
	master.CreateTable("x")
	// Pre-existing history before the replica attaches.
	for i := 0; i < 5; i++ {
		if _, err := master.Commit(master.NewTx().Put("x", fmt.Sprintf("old%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	replica := New("replica")
	r := StartReplication(master, replica)
	defer r.Stop()
	// Live traffic after attach.
	for i := 0; i < 5; i++ {
		if _, err := master.Commit(master.NewTx().Put("x", fmt.Sprintf("new%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitCaughtUp(5 * time.Second) {
		t.Fatalf("replica at LSN %d of %d after timeout", replica.LSN(), master.LSN())
	}
	if n := count(t, replica, "x"); n != 10 {
		t.Fatalf("replica rows = %d, want 10", n)
	}
}

func TestChainedReplication(t *testing.T) {
	// Nagano -> Schaumburg -> Columbus, as in Figure 5.
	nagano := New("nagano")
	nagano.CreateTable("x")
	schaumburg := New("schaumburg")
	columbus := New("columbus")
	r1 := StartReplication(nagano, schaumburg)
	defer r1.Stop()
	r2 := StartReplication(schaumburg, columbus)
	defer r2.Stop()
	for i := 0; i < 20; i++ {
		if _, err := nagano.Commit(nagano.NewTx().Put("x", fmt.Sprintf("k%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if columbus.LSN() == 20 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := count(t, columbus, "x"); n != 20 {
		t.Fatalf("columbus rows = %d, want 20", n)
	}
}

func TestReplicationDelayApplied(t *testing.T) {
	master := New("m")
	master.CreateTable("x")
	replica := New("r")
	var mu sync.Mutex
	var slept []time.Duration
	r := StartReplication(master, replica,
		WithDelay(7*time.Millisecond),
		WithSleep(func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		}))
	defer r.Stop()
	if _, err := master.Commit(master.NewTx().Put("x", "k", nil)); err != nil {
		t.Fatal(err)
	}
	if !r.WaitCaughtUp(5 * time.Second) {
		t.Fatal("not caught up")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 || slept[0] != 7*time.Millisecond {
		t.Fatalf("slept = %v", slept)
	}
}

func TestReplicaHasOwnFeed(t *testing.T) {
	master := New("m")
	master.CreateTable("x")
	replica := New("r")
	feed, cancel := replica.Subscribe(8)
	defer cancel()
	r := StartReplication(master, replica)
	defer r.Stop()
	if _, err := master.Commit(master.NewTx().Put("x", "k", map[string]string{"a": "1"})); err != nil {
		t.Fatal(err)
	}
	select {
	case tx := <-feed:
		if tx.LSN != 1 || tx.Changes[0].Key != "k" {
			t.Fatalf("replica feed tx = %+v", tx)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replica feed silent")
	}
}

func TestConcurrentCommits(t *testing.T) {
	d := New("t")
	d.CreateTable("x")
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := d.Commit(d.NewTx().Put("x", fmt.Sprintf("w%d-%d", w, i), nil)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d.LSN() != workers*per {
		t.Fatalf("LSN = %d, want %d", d.LSN(), workers*per)
	}
	if n := count(t, d, "x"); n != workers*per {
		t.Fatalf("rows = %d, want %d", n, workers*per)
	}
	// The log must contain exactly one transaction per LSN, in order.
	log := d.LogSince(0)
	for i, tx := range log {
		if tx.LSN != int64(i+1) {
			t.Fatalf("log[%d].LSN = %d", i, tx.LSN)
		}
	}
}

// Property: replaying a master's log into a fresh DB via Apply produces
// identical table contents (replication is deterministic).
func TestReplayEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New("m")
		m.CreateTable("x")
		for i := 0; i < 100; i++ {
			tx := m.NewTx()
			for j := 0; j <= rng.Intn(3); j++ {
				k := fmt.Sprintf("k%d", rng.Intn(20))
				tx.Put("x", k, map[string]string{"v": fmt.Sprint(rng.Intn(1000))})
			}
			if _, err := m.Commit(tx); err != nil {
				return false
			}
		}
		r := New("r")
		for _, tx := range m.LogSince(0) {
			if err := r.Apply(tx); err != nil {
				return false
			}
		}
		mrows, _ := m.Scan("x", "")
		rrows, _ := r.Scan("x", "")
		if len(mrows) != len(rrows) {
			return false
		}
		for i := range mrows {
			if mrows[i].Key != rrows[i].Key || mrows[i].Cols["v"] != rrows[i].Cols["v"] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCommitSingleRow(b *testing.B) {
	d := New("b")
	d.CreateTable("x")
	cols := map[string]string{"score": "9.81", "rank": "1"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Commit(d.NewTx().Put("x", "k", cols)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	d := New("b")
	d.CreateTable("x")
	if _, err := d.Commit(d.NewTx().Put("x", "k", map[string]string{"a": "1"})); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Get("x", "k"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCommitMintsUniqueTraceIDs(t *testing.T) {
	d := New("t")
	d.CreateTable("r")
	seen := make(map[int64]bool)
	for i := 0; i < 10; i++ {
		tx, err := d.Commit(d.NewTx().Put("r", "k", map[string]string{"v": "1"}))
		if err != nil {
			t.Fatal(err)
		}
		if tx.TraceID == 0 {
			t.Fatal("commit did not mint a TraceID")
		}
		if seen[tx.TraceID] {
			t.Fatalf("duplicate TraceID %d", tx.TraceID)
		}
		seen[tx.TraceID] = true
	}
}

func TestApplyPreservesTraceID(t *testing.T) {
	master := New("m")
	master.CreateTable("r")
	tx, err := master.Commit(master.NewTx().Put("r", "k", map[string]string{"v": "1"}))
	if err != nil {
		t.Fatal(err)
	}
	replica := New("rep")
	if err := replica.Apply(tx); err != nil {
		t.Fatal(err)
	}
	got := replica.LogSince(0)
	if len(got) != 1 || got[0].TraceID != tx.TraceID {
		t.Fatalf("replica log TraceID = %+v, want %d (identity must survive log shipping)", got, tx.TraceID)
	}
}

// count returns the number of rows in table tbl of d.
func count(t *testing.T, d *DB, tbl string) int {
	t.Helper()
	rows, err := d.Scan(tbl, "")
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}
