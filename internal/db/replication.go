package db

import (
	"errors"
	"sync"
	"time"
)

// Target is the receiving end of replication: apply one transaction, report
// the highest LSN applied. A *DB is a Target (the in-process wiring the
// simulations use); wire.ReplicaClient, which only bench/ uses, ships each
// transaction over TCP to a replica in another process.
type Target interface {
	Apply(Transaction) error
	LSN() int64
}

// Replicator ships committed transactions from a master database to a
// replica, mirroring Figure 5 of the paper (master in Nagano -> Tokyo and
// Schaumburg -> Columbus and Bethesda). A replicator first catches the
// replica up from the master's retained log, then applies the live feed in
// LSN order, optionally delaying each transaction to model WAN propagation.
//
// Replicas are ordinary *DB values, so they have their own CDC feeds: the
// per-complex trigger monitors subscribe to their local replica exactly as
// the paper describes, and chained replication (Schaumburg fanning out to
// the US east-coast sites) is just a Replicator whose master is itself a
// replica.
type Replicator struct {
	master      *DB
	replica     Target
	delay       time.Duration
	sleep       func(time.Duration)
	partitioned func() bool

	cancel   func()
	done     chan struct{}
	quit     chan struct{}
	quitOnce sync.Once

	mu      sync.Mutex
	stopped bool
}

// ReplOption configures a Replicator.
type ReplOption func(*Replicator)

// WithDelay applies a fixed propagation delay to every transaction.
func WithDelay(d time.Duration) ReplOption {
	return func(r *Replicator) { r.delay = d }
}

// WithSleep substitutes the sleep implementation. It is a test seam: tests
// use a recorder, and the discrete-event simulation bypasses Replicator
// entirely and calls Apply on its own clock.
func WithSleep(f func(time.Duration)) ReplOption {
	return func(r *Replicator) { r.sleep = f }
}

// WithPartitionCheck installs a link-partition predicate (fault injection).
// While it reports true, the replicator holds delivery — committed
// transactions queue on the master's feed and retained log — and resumes
// shipping in order once the partition heals. Nothing is lost: a partition
// delays propagation, exactly like the paper's WAN hiccups between Nagano
// and the US complexes.
func WithPartitionCheck(f func() bool) ReplOption {
	return func(r *Replicator) { r.partitioned = f }
}

// StartReplication begins shipping master's log to replica and returns the
// running Replicator. The caller must Stop it to release the feed.
func StartReplication(master, replica *DB, opts ...ReplOption) *Replicator {
	return StartReplicationTo(master, replica, opts...)
}

// StartReplicationTo begins shipping master's log to an arbitrary Target —
// a local *DB or a wire client fronting a replica in another process. Apply
// errors that expose `Transient() bool` (transport failures: the link is
// down, not the log broken) park delivery and retry the same transaction in
// order until it lands or Stop is called, preserving the partition
// semantics of local replication: committed transactions queue, nothing is
// lost, the replica catches up when the path heals. bench/plant.go is its
// one remaining caller, until the bench builds its plant with deploy.
func StartReplicationTo(master *DB, replica Target, opts ...ReplOption) *Replicator {
	r := &Replicator{
		master:  master,
		replica: replica,
		sleep:   time.Sleep,
		done:    make(chan struct{}),
		quit:    make(chan struct{}),
	}
	for _, o := range opts {
		o(r)
	}
	feed, cancel := master.Subscribe(256)
	r.cancel = cancel

	go func() {
		defer close(r.done)
		// Catch up from the retained log first. Transactions that race onto
		// the feed during catch-up are filtered below by LSN.
		for _, tx := range master.LogSince(replica.LSN()) {
			if !r.ship(tx) {
				return
			}
		}
		for tx := range feed {
			if tx.LSN <= replica.LSN() {
				continue // already applied during catch-up
			}
			if !r.ship(tx) {
				return
			}
		}
	}()
	return r
}

// ship delivers one transaction to the replica, holding first while the
// link is partitioned. Returns false when the replicator should stop
// (Stop was called mid-hold, or the replica rejected the transaction).
func (r *Replicator) ship(tx Transaction) bool {
	for r.partitioned != nil && r.partitioned() {
		select {
		case <-r.quit:
			return false
		default:
		}
		// Poll on the wall clock (not r.sleep, which tests may stub to a
		// no-op) so a partition hold never becomes a busy spin.
		time.Sleep(200 * time.Microsecond)
	}
	if r.delay > 0 {
		r.sleep(r.delay)
	}
	r.apply(tx)
	r.mu.Lock()
	stopped := r.stopped
	r.mu.Unlock()
	return !stopped
}

func (r *Replicator) apply(tx Transaction) {
	backoff := time.Millisecond
	for {
		err := r.replica.Apply(tx)
		if err == nil {
			return
		}
		var t interface{ Transient() bool }
		if errors.As(err, &t) && t.Transient() {
			// The target is unreachable, not wrong: park and retry this
			// transaction so delivery stays in LSN order, exactly like the
			// partition hold in ship. Check quit so Stop stays prompt.
			select {
			case <-r.quit:
				r.mu.Lock()
				r.stopped = true
				r.mu.Unlock()
				return
			default:
			}
			time.Sleep(backoff)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		// A non-transient Apply failure is an LSN gap (a replication bug)
		// or a remote replica that refused the transaction. Either way the
		// replicator must not silently skip: record and stop consuming.
		r.mu.Lock()
		r.stopped = true
		r.mu.Unlock()
		r.cancel()
		return
	}
}

// Stop unsubscribes from the master and waits for the shipping goroutine to
// drain. Safe to call multiple times. A replicator held by a partition
// check stops promptly without waiting for the partition to heal.
func (r *Replicator) Stop() {
	r.quitOnce.Do(func() { close(r.quit) })
	r.cancel()
	<-r.done
}

// WaitCaughtUp blocks until the replica has applied every transaction the
// master had committed at call time, or the timeout elapses. It reports
// whether catch-up completed.
func (r *Replicator) WaitCaughtUp(timeout time.Duration) bool {
	target := r.master.LSN()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.replica.LSN() >= target {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return r.replica.LSN() >= target
}
