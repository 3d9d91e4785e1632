package db

import (
	"fmt"
	"sort"
)

// Snapshot is a consistent full copy of a database at one LSN, suitable for
// bootstrapping a replica without replaying the whole transaction log —
// how a complex joining mid-games would initialize before switching to the
// live feed.
type Snapshot struct {
	Name   string           `json:"name"`
	LSN    int64            `json:"lsn"`
	Tables map[string][]Row `json:"tables"`
}

// Snapshot captures the current state. Rows are deep copies; mutating them
// does not affect the database.
func (d *DB) Snapshot() Snapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := Snapshot{Name: d.name, LSN: d.lsn, Tables: make(map[string][]Row, len(d.tables))}
	for name, t := range d.tables {
		rows := make([]Row, 0, len(t.rows))
		for _, r := range t.rows {
			rows = append(rows, r.clone())
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
		s.Tables[name] = rows
	}
	return s
}

// Restore replaces the database's contents with the snapshot and sets its
// LSN, so subsequent Apply calls continue from snapshot.LSN+1. Restoring
// into a database that has already committed transactions is rejected: a
// replica bootstraps once, before attaching to a feed.
func (d *DB) Restore(s Snapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.lsn != 0 || len(d.log) != 0 {
		return fmt.Errorf("db: restore into non-empty database %q (LSN %d)", d.name, d.lsn)
	}
	d.tables = make(map[string]*table, len(s.Tables))
	for name, rows := range s.Tables {
		t := &table{name: name, rows: make(map[string]Row, len(rows))}
		for _, r := range rows {
			t.rows[r.Key] = r.clone()
		}
		d.tables[name] = t
	}
	d.lsn = s.LSN
	return nil
}

// TruncateLog discards retained transactions with LSN <= before, bounding
// the memory a long-running master spends on replica catch-up history.
// Replicas older than the truncation point must bootstrap from a Snapshot
// instead of LogSince. Returns the number of entries dropped.
func (d *DB) TruncateLog(before int64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := sort.Search(len(d.log), func(i int) bool { return d.log[i].LSN > before })
	if i == 0 {
		return 0
	}
	dropped := i
	d.log = append([]Transaction(nil), d.log[i:]...)
	return dropped
}

// OldestRetainedLSN returns the LSN of the oldest retained log entry, or 0
// when the log is empty.
func (d *DB) OldestRetainedLSN() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.log) == 0 {
		return 0
	}
	return d.log[0].LSN
}
