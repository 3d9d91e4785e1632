package trigger

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// waitForTransactions blocks until the monitor has propagated n
// transactions (or the test deadline hits).
func waitForTransactions(t *testing.T, m *Monitor, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Transactions < n {
		if time.Now().After(deadline) {
			t.Fatalf("monitor stuck at %d of %d transactions", m.Stats().Transactions, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// holder is a crash hook that never crashes. It records the batch LSN of
// every propagation and blocks the first one until Release, so commits
// made meanwhile pile up on the CDC feed and form the next batch.
type holder struct {
	held    chan struct{} // closed once the first propagation is blocked
	release chan struct{}
	once    sync.Once

	mu   sync.Mutex
	lsns []int64
}

// newHeldHarness is newHarness with a holder installed as the crash hook.
func newHeldHarness(t *testing.T, opts ...Option) (*harness, *holder) {
	t.Helper()
	hold := &holder{held: make(chan struct{}), release: make(chan struct{})}
	h := newHarness(t, append(opts, WithCrashHook(hold.hook))...)
	// Registered after the harness, so it runs before the harness's
	// Shutdown: a failed test never leaves the monitor blocked.
	t.Cleanup(hold.Release)
	return h, hold
}

func (hold *holder) hook(lsn int64) bool {
	hold.mu.Lock()
	hold.lsns = append(hold.lsns, lsn)
	first := len(hold.lsns) == 1
	hold.mu.Unlock()
	if first {
		close(hold.held)
		<-hold.release
	}
	return false
}

// Release lets the held first propagation finish. Safe to call more than
// once.
func (hold *holder) Release() { hold.once.Do(func() { close(hold.release) }) }

// batchLSNs returns the highest LSN of every batch propagated so far.
func (hold *holder) batchLSNs() []int64 {
	hold.mu.Lock()
	defer hold.mu.Unlock()
	return append([]int64(nil), hold.lsns...)
}

// pileUp commits one transaction to row ev1, waits until the monitor is
// held inside the propagation that transaction woke, then commits n more
// to ev1 (scores "0".."n-1") and waits until all n wait on the CDC feed.
// The caller releases the monitor.
func (hold *holder) pileUp(t *testing.T, h *harness, n int) {
	t.Helper()
	h.commit(t, "ev1", "waker")
	select {
	case <-hold.held:
	case <-time.After(5 * time.Second):
		t.Fatal("monitor never entered its first propagation")
	}
	for i := 0; i < n; i++ {
		h.commit(t, "ev1", fmt.Sprint(i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(h.monitor.feed) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d commits reached the feed", len(h.monitor.feed), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBurstCoalescesIntoOneBatch holds the monitor inside the propagation
// of a lone commit while a commit burst of 63 accumulates on the feed, then
// verifies the backlog propagates as ONE merged batch under the default
// MaxPending (128): the sublinear-burst guarantee.
func TestBurstCoalescesIntoOneBatch(t *testing.T) {
	h, hold := newHeldHarness(t)
	h.registerPage(t, "ev1")

	// The burst piles up while propagation is stalled (the paper's commit
	// storm during a popular event).
	hold.pileUp(t, h, 63)
	hold.Release()
	waitForTransactions(t, h.monitor, 64)

	st := h.monitor.Stats()
	if st.Batches != 2 {
		t.Fatalf("batches = %d, want 2 (burst must coalesce into one batch)", st.Batches)
	}
	if got, want := hold.batchLSNs(), []int64{1, 64}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch LSNs = %v, want %v", got, want)
	}
	if st.Coalesced != 62 {
		// The first backlog transaction wakes the monitor; the other 62
		// are absorbed from the feed into its batch.
		t.Fatalf("coalesced = %d, want 62", st.Coalesced)
	}
}

// TestMaxPendingBoundsCoalescing verifies the batch cap: the same backlog
// of 63 under MaxPending 16 leaves in MaxPending slices, 16+16+16+15,
// without Flush, rather than as one unbounded batch.
func TestMaxPendingBoundsCoalescing(t *testing.T) {
	h, hold := newHeldHarness(t, withMaxPending(16))
	h.registerPage(t, "ev1")

	hold.pileUp(t, h, 63)
	hold.Release()
	waitForTransactions(t, h.monitor, 64)

	st := h.monitor.Stats()
	// Batch 1 holds the lone LSN 1; the backlog LSNs 2..64 follow as
	// 2..17, 18..33, 34..49 and 50..64.
	if got, want := hold.batchLSNs(), []int64{1, 17, 33, 49, 64}; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch LSNs = %v, want %v (MaxPending must bound each batch)", got, want)
	}
	if st.Batches != 5 || st.Coalesced != 62 {
		t.Fatalf("batches = %d, coalesced = %d, want 5 and 62", st.Batches, st.Coalesced)
	}
	bounds, counts := h.monitor.BatchSizes().Buckets()
	for i, c := range counts {
		if c > 0 && (i >= len(bounds) || bounds[i] > 16) {
			t.Fatalf("a batch exceeded MaxPending (histogram bucket %d has %d)", i, c)
		}
	}
}

// TestFlushBacksOffWithoutSpinning exercises the Flush retry path: a
// transaction committed immediately before Flush must be propagated by the
// time Flush returns, regardless of feed-queue timing.
func TestFlushBacksOffWithoutSpinning(t *testing.T) {
	h := newHarness(t)
	h.registerPage(t, "ev1")
	for i := 0; i < 50; i++ {
		h.commit(t, "ev1", "s")
		h.monitor.Flush()
		if got := h.monitor.LastLSN(); got != h.db.LSN() {
			t.Fatalf("Flush returned at LSN %d, want %d", got, h.db.LSN())
		}
	}
}
