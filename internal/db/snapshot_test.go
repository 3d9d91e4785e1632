package db

import (
	"fmt"
	"testing"
)

func seeded(t *testing.T, n int) *DB {
	t.Helper()
	d := New("m")
	d.CreateTable("x")
	for i := 0; i < n; i++ {
		if _, err := d.Commit(d.NewTx().Put("x", fmt.Sprintf("k%d", i), map[string]string{"v": fmt.Sprint(i)})); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := seeded(t, 10)
	snap := m.Snapshot()
	if snap.LSN != 10 || len(snap.Tables["x"]) != 10 {
		t.Fatalf("snapshot = LSN %d, %d rows", snap.LSN, len(snap.Tables["x"]))
	}
	r := New("r")
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.LSN() != 10 {
		t.Fatalf("restored LSN = %d", r.LSN())
	}
	row, ok, err := r.Get("x", "k3")
	if err != nil || !ok || row.Cols["v"] != "3" {
		t.Fatalf("restored row = %+v %v %v", row, ok, err)
	}
	// The replica continues from LSN 11 via Apply.
	if err := r.Apply(Transaction{LSN: 11, Changes: []Change{{Table: "x", Key: "new", Op: OpPut}}}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	m := seeded(t, 1)
	snap := m.Snapshot()
	snap.Tables["x"][0].Cols["v"] = "mutated"
	row, _, _ := m.Get("x", "k0")
	if row.Cols["v"] != "0" {
		t.Fatal("snapshot aliases database memory")
	}
}

func TestRestoreRejectsNonEmpty(t *testing.T) {
	m := seeded(t, 2)
	if err := m.Restore(m.Snapshot()); err == nil {
		t.Fatal("restore into non-empty database accepted")
	}
}

func TestOldestRetainedEmpty(t *testing.T) {
	d := New("e")
	if d.OldestRetainedLSN() != 0 {
		t.Fatal("empty log should report 0")
	}
}

func TestBootstrapFromSnapshotThenLiveFeed(t *testing.T) {
	// The mid-games replica bootstrap: snapshot, then live replication
	// from the snapshot's LSN on.
	m := seeded(t, 20)
	snap := m.Snapshot()

	r := New("late-replica")
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	repl := StartReplication(m, r)
	defer repl.Stop()
	for i := 0; i < 5; i++ {
		if _, err := m.Commit(m.NewTx().Put("x", fmt.Sprintf("live%d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if !repl.WaitCaughtUp(5e9) {
		t.Fatal("late replica never caught up")
	}
	if n := count(t, r, "x"); n != 25 {
		t.Fatalf("replica rows = %d, want 25", n)
	}
}
