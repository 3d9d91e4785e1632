// Package db implements the database substrate of the Olympic Games web
// site (section 3, figures 4-5 of the paper).
//
// The production system used DB2: venue scoring equipment wrote results to
// local databases, which replicated to a master in Nagano, which in turn
// replicated to the server complexes. What DUP requires from the database
// is precisely (1) transactional row storage and (2) a change-data-capture
// feed announcing which rows each committed transaction touched — that feed
// is what the trigger monitor consumes. This package provides both, plus
// master-to-replica log shipping with configurable propagation delay so the
// simulation can model geographic replication lag.
//
// All operations are safe for concurrent use. Commits are serialized and
// assigned monotonically increasing log sequence numbers (LSNs).
//
// Committed rows are immutable. Tx.Put copies the caller's columns once;
// Commit and Apply store that map and later replace it, never write to it.
// Get and Scan therefore hand out the stored rows without copying, the same
// column maps the CDC feed and replication already share, and callers must
// not modify them. Snapshot and Restore, the export boundary, deep-copy.
package db

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dupserve/internal/stats"
)

// Op identifies the kind of change a transaction applied to a row.
type Op uint8

const (
	// OpPut inserts or replaces a row.
	OpPut Op = iota
	// OpDelete removes a row.
	OpDelete
)

// String returns "put" or "delete".
func (o Op) String() string {
	if o == OpDelete {
		return "delete"
	}
	return "put"
}

// Row is a stored record: a primary key plus named string columns. A
// committed row's Cols is immutable and shared with every reader; callers
// must not modify it.
type Row struct {
	Key  string
	Cols map[string]string
	// LSN is the commit sequence number of the transaction that last wrote
	// the row.
	LSN int64
}

func (r Row) clone() Row {
	cols := make(map[string]string, len(r.Cols))
	for k, v := range r.Cols {
		cols[k] = v
	}
	return Row{Key: r.Key, Cols: cols, LSN: r.LSN}
}

// Change records one row mutation within a committed transaction.
type Change struct {
	Table string
	Key   string
	Op    Op
	// Cols holds the new column values for OpPut; nil for OpDelete.
	Cols map[string]string
	// Created is set by Commit when an OpPut inserted a new row rather
	// than updating an existing one. Membership-index propagation (pages
	// built from table scans) keys off inserts and deletes only.
	Created bool
}

// ChangeID renders the canonical ODG vertex name for the changed row,
// "db:<table>:<key>". The trigger monitor and dependency registrars must
// agree on this format, so it lives here.
func (c Change) ChangeID() string { return RowID(c.Table, c.Key) }

// RowID renders the canonical ODG vertex name for a table row.
func RowID(table, key string) string { return "db:" + table + ":" + key }

// IndexID renders the canonical ODG vertex name for a table-prefix
// membership index ("db:<table>:index:<prefix>"). Scan-based renderers
// depend on it and writers that insert or delete rows under the prefix bump
// it, so pages built from table scans refresh on membership changes. It
// lives here, next to RowID, because readers (fragment contexts), writers
// (site indexers) and auditors must all agree on the format.
func IndexID(table, prefix string) string { return "db:" + table + ":index:" + prefix }

// Transaction is a committed, ordered batch of changes.
type Transaction struct {
	LSN     int64
	Changes []Change
	// Commit is the (possibly simulated) commit timestamp.
	Commit time.Time
	// TraceID is a process-unique propagation trace ID minted at commit.
	// It rides the CDC feed and log shipping unchanged, so the trigger
	// monitor can attribute every downstream propagation stage back to the
	// originating commit (internal/obs).
	TraceID int64
}

// traceSeq mints TraceIDs. Process-global rather than per-DB so a
// transaction keeps one identity as it ships master -> replica.
var traceSeq atomic.Int64

// NextTraceID mints a fresh trace ID. Exposed for components that inject
// synthetic transactions (simulators, tests).
func NextTraceID() int64 { return traceSeq.Add(1) }

// ErrNoTable is returned when an operation references a table that was
// never created.
var ErrNoTable = errors.New("db: no such table")

type table struct {
	name string
	rows map[string]Row
}

// DB is an in-memory multi-table store with a transactional write path, a
// retained transaction log, and a subscription feed for change-data
// capture.
type DB struct {
	name string
	now  func() time.Time

	mu       sync.RWMutex
	tables   map[string]*table
	log      []Transaction // retained for replica catch-up
	lsn      int64
	subs     map[int]*subscriber
	nextID   int
	readHook ReadHook
}

// ReadHook observes row-level reads for dependency auditing: it receives
// the canonical ODG vertex name (RowID / IndexID) of everything Get and
// Scan touch. The hook runs under the database's read lock, so it must be
// fast and must not call back into the database — collectors should only
// append to their own storage.
type ReadHook func(id string)

// SetReadHook installs (or, with nil, removes) the read hook.
func (d *DB) SetReadHook(h ReadHook) {
	d.mu.Lock()
	d.readHook = h
	d.mu.Unlock()
}

// subscriber decouples commit from feed consumption with an unbounded
// in-memory queue: Commit never blocks and never drops a transaction (a
// dropped update would strand stale pages in the cache forever), and slow
// consumers only cost memory. A dedicated pump goroutine moves transactions
// from the queue to the subscriber's channel; it is the only goroutine that
// ever closes that channel, which makes cancellation race-free.
type subscriber struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Transaction
	closed bool
	out    chan Transaction
	done   chan struct{}
}

func newSubscriber(buffer int) *subscriber {
	s := &subscriber{out: make(chan Transaction, buffer), done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
}

func (s *subscriber) enqueue(tx Transaction) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, tx)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *subscriber) cancel() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *subscriber) pump() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			close(s.out)
			return
		}
		tx := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		select {
		case s.out <- tx:
		case <-s.done:
			close(s.out)
			return
		}
	}
}

// Option configures a DB.
type Option func(*DB)

// WithClock substitutes the commit-timestamp source.
// It is a test seam: production always runs on the real clock.
func WithClock(now func() time.Time) Option {
	return func(d *DB) { d.now = now }
}

// New returns an empty database. name appears in diagnostics only.
func New(name string, opts ...Option) *DB {
	d := &DB{
		name:   name,
		now:    time.Now,
		tables: make(map[string]*table),
		subs:   make(map[int]*subscriber),
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Name returns the database's diagnostic name.
func (d *DB) Name() string { return d.name }

// CreateTable ensures a table exists. Creating an existing table is a
// no-op, so replicas can idempotently mirror master schemas.
func (d *DB) CreateTable(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tables[name]; !ok {
		d.tables[name] = &table{name: name, rows: make(map[string]Row)}
	}
}

// Get returns the stored row, with ok reporting presence. The row's Cols is
// shared with the store and must not be modified; a later commit replaces
// the map rather than writing to it, so a row read earlier keeps its
// columns.
func (d *DB) Get(tbl, key string) (Row, bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.readHook != nil {
		// Reported even for absent rows and tables: content derived from
		// "nothing there" depends on it staying that way, mirroring
		// fragment.Context.Get.
		d.readHook(RowID(tbl, key))
	}
	t, ok := d.tables[tbl]
	if !ok {
		return Row{}, false, fmt.Errorf("%w: %q", ErrNoTable, tbl)
	}
	r, ok := t.rows[key]
	if !ok {
		return Row{}, false, nil
	}
	return r, true, nil
}

// Scan returns all rows in the table whose key begins with prefix, sorted by
// key. An empty prefix scans the whole table. As with Get, the rows' Cols
// are shared with the store and must not be modified.
func (d *DB) Scan(tbl, prefix string) ([]Row, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[tbl]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, tbl)
	}
	var out []Row
	for k, r := range t.rows {
		if strings.HasPrefix(k, prefix) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if d.readHook != nil {
		for _, r := range out {
			d.readHook(RowID(tbl, r.Key))
		}
		// A scan also reads the membership: which keys exist under the
		// prefix. The index vertex expresses that, mirroring
		// fragment.Context.Scan.
		d.readHook(IndexID(tbl, prefix))
	}
	return out, nil
}

// Tx accumulates changes for an atomic commit. A Tx is not safe for
// concurrent use; build it on one goroutine and Commit it once.
type Tx struct {
	changes []Change
}

// NewTx returns an empty transaction builder.
func (d *DB) NewTx() *Tx { return &Tx{} }

// Put stages an insert-or-replace of (tbl, key) with the given columns. The
// column map is copied immediately, so the caller may reuse it.
func (t *Tx) Put(tbl, key string, cols map[string]string) *Tx {
	cp := make(map[string]string, len(cols))
	for k, v := range cols {
		cp[k] = v
	}
	t.changes = append(t.changes, Change{Table: tbl, Key: key, Op: OpPut, Cols: cp})
	return t
}

// Commit atomically applies the transaction, assigns it the next LSN,
// appends it to the retained log, and publishes it to all subscribers. Each
// put stores the column map Tx.Put copied, replacing the row's previous map
// without writing to it; the log, the feed and readers share that map. It
// returns the committed transaction (whose Changes slice the caller must
// treat as read-only). Committing an empty Tx returns a zero Transaction
// and no error, and produces no log entry.
func (d *DB) Commit(tx *Tx) (Transaction, error) {
	if len(tx.changes) == 0 {
		return Transaction{}, nil
	}
	d.mu.Lock()
	// Validate all tables first so a commit is all-or-nothing.
	for _, c := range tx.changes {
		if _, ok := d.tables[c.Table]; !ok {
			d.mu.Unlock()
			return Transaction{}, fmt.Errorf("%w: %q", ErrNoTable, c.Table)
		}
	}
	d.lsn++
	committed := Transaction{LSN: d.lsn, Changes: tx.changes, Commit: d.now(), TraceID: NextTraceID()}
	for i := range tx.changes {
		c := &tx.changes[i]
		t := d.tables[c.Table]
		switch c.Op {
		case OpPut:
			_, existed := t.rows[c.Key]
			c.Created = !existed
			t.rows[c.Key] = Row{Key: c.Key, Cols: c.Cols, LSN: d.lsn}
		case OpDelete:
			delete(t.rows, c.Key)
		}
	}
	d.log = append(d.log, committed)
	// Enqueue while still holding the lock so subscribers observe
	// transactions in LSN order; enqueue never blocks.
	for _, s := range d.subs {
		s.enqueue(committed)
	}
	d.mu.Unlock()

	tx.changes = nil // prevent accidental re-commit of the same batch
	return committed, nil
}

// Apply installs an already-sequenced transaction from another database's
// log — the replica side of log shipping. The LSN is taken from the
// incoming transaction; out-of-order or duplicate LSNs are rejected so
// replication bugs surface instead of silently corrupting the replica.
func (d *DB) Apply(tx Transaction) error {
	d.mu.Lock()
	if tx.LSN != d.lsn+1 {
		cur := d.lsn
		d.mu.Unlock()
		return fmt.Errorf("db: apply out of order: have LSN %d, got %d", cur, tx.LSN)
	}
	for _, c := range tx.Changes {
		if _, ok := d.tables[c.Table]; !ok {
			// Auto-create: replicas mirror schema lazily.
			d.tables[c.Table] = &table{name: c.Table, rows: make(map[string]Row)}
		}
	}
	d.lsn = tx.LSN
	for _, c := range tx.Changes {
		t := d.tables[c.Table]
		switch c.Op {
		case OpPut:
			t.rows[c.Key] = Row{Key: c.Key, Cols: c.Cols, LSN: tx.LSN}
		case OpDelete:
			delete(t.rows, c.Key)
		}
	}
	d.log = append(d.log, tx)
	for _, s := range d.subs {
		s.enqueue(tx)
	}
	d.mu.Unlock()
	return nil
}

// LSN returns the last committed sequence number.
func (d *DB) LSN() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lsn
}

// LogSince returns copies of all retained transactions with LSN > after, in
// order. New replicas use it to catch up before subscribing.
func (d *DB) LogSince(after int64) []Transaction {
	d.mu.RLock()
	defer d.mu.RUnlock()
	i := sort.Search(len(d.log), func(i int) bool { return d.log[i].LSN > after })
	out := make([]Transaction, len(d.log)-i)
	copy(out, d.log[i:])
	return out
}

// Subscribe registers a change-data-capture feed. Every transaction
// committed (or applied) after the call is delivered, in LSN order, on the
// returned channel, which has the given buffer capacity (an unbounded
// internal queue sits behind it, so commits never block on slow consumers).
// cancel unregisters the feed and closes the channel after any in-flight
// delivery; it is safe to call more than once.
func (d *DB) Subscribe(buffer int) (feed <-chan Transaction, cancel func()) {
	if buffer < 1 {
		buffer = 1
	}
	s := newSubscriber(buffer)
	d.mu.Lock()
	id := d.nextID
	d.nextID++
	d.subs[id] = s
	d.mu.Unlock()
	return s.out, func() {
		d.mu.Lock()
		delete(d.subs, id)
		d.mu.Unlock()
		s.cancel()
	}
}

// RegisterMetrics publishes the database's state into a registry as
// compute-on-read gauges: committed LSN (the commit count), retained log
// length, table count, and live CDC subscriber count.
func (d *DB) RegisterMetrics(reg *stats.Registry, labels stats.Labels) {
	reg.RegisterFunc("db_lsn", "last committed log sequence number", labels,
		func() float64 { return float64(d.LSN()) })
	reg.RegisterFunc("db_log_transactions", "transactions retained for replica catch-up", labels,
		func() float64 {
			d.mu.RLock()
			defer d.mu.RUnlock()
			return float64(len(d.log))
		})
	reg.RegisterFunc("db_tables", "tables in the store", labels,
		func() float64 {
			d.mu.RLock()
			defer d.mu.RUnlock()
			return float64(len(d.tables))
		})
	reg.RegisterFunc("db_cdc_subscribers", "live change-data-capture feeds", labels,
		func() float64 {
			d.mu.RLock()
			defer d.mu.RUnlock()
			return float64(len(d.subs))
		})
}
