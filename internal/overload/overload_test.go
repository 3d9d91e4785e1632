package overload

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dupserve/internal/stats"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(1998, 2, 7, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestAcquireReleaseBasic(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 2})
	r1, err := l.Acquire()
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	r2, err := l.Acquire()
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if got := l.Inflight(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	r1()
	r2()
	if got := l.Inflight(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
	if a, s := l.admitted.Value(), l.shed.Value(); a != 2 || s != 0 {
		t.Fatalf("admitted %d shed %d, want 2 admitted 0 shed", a, s)
	}
}

func TestQueueBoundSheds(t *testing.T) {
	// One slot, no queue: the second concurrent acquire must shed at once.
	l := NewLimiter(Config{MaxConcurrent: 1, MaxQueue: -1})
	r, err := l.Acquire()
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if _, err := l.Acquire(); !errors.Is(err, ErrShed) {
		t.Fatalf("second acquire err = %v, want ErrShed", err)
	}
	r()
	if _, err := l.Acquire(); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestBoundedQueueAdmitsAfterRelease(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, MaxQueue: 1})
	r1, err := l.Acquire()
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	admitted := make(chan func(), 1)
	go func() {
		r, err := l.Acquire() // queues
		if err != nil {
			t.Errorf("queued acquire: %v", err)
			admitted <- nil
			return
		}
		admitted <- r
	}()

	// Wait for the goroutine to be queued, then verify the queue bound.
	deadline := time.Now().Add(2 * time.Second)
	for l.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := l.Acquire(); !errors.Is(err, ErrShed) {
		t.Fatalf("over-queue acquire err = %v, want ErrShed", err)
	}

	r1()
	r2 := <-admitted
	if r2 == nil {
		t.Fatal("queued waiter not admitted")
	}
	r2()
	if q := l.queued.Value(); q != 1 {
		t.Fatalf("queued = %d, want 1", q)
	}
}

func TestCodelShedsOnStandingDelay(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Config{
		MaxConcurrent: 1, MaxQueue: 4,
		Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond,
		Clock: clk.Now,
	})

	// Hold the only slot so every admission below goes through the queue.
	hold, err := l.Acquire()
	if err != nil {
		t.Fatalf("hold: %v", err)
	}

	// One queued waiter that will observe a long delay. It keeps its slot so
	// the limiter stays busy — shedding is only meaningful under contention
	// (a full drain intentionally resets it).
	admitted := make(chan func(), 1)
	go func() {
		r, err := l.Acquire()
		if err != nil {
			t.Errorf("queued acquire: %v", err)
			admitted <- nil
			return
		}
		admitted <- r
	}()
	deadline := time.Now().Add(2 * time.Second)
	for l.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Standing delay: more than a full interval passes with the waiter
	// stuck, so its eventual admission proves delay stood above target.
	clk.Advance(200 * time.Millisecond)
	hold()
	r2 := <-admitted
	if r2 == nil {
		t.FailNow()
	}

	if !l.Shedding() {
		t.Fatal("limiter not shedding after standing queue delay")
	}
	if _, err := l.Acquire(); !errors.Is(err, ErrShed) {
		t.Fatalf("acquire while shedding err = %v, want ErrShed", err)
	}
	if l.shedCodel.Value() == 0 {
		t.Fatal("shedCodel = 0, want > 0")
	}
	r2()
	if l.Shedding() {
		t.Fatal("shedding survived a full drain")
	}
}

func TestSheddingClearsOnDrain(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(Config{
		MaxConcurrent: 1, MaxQueue: 4,
		Target: 5 * time.Millisecond, Interval: 100 * time.Millisecond,
		Clock: clk.Now,
	})
	hold, _ := l.Acquire()
	done := make(chan struct{})
	go func() {
		r, err := l.Acquire()
		if err == nil {
			r()
		}
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for l.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	clk.Advance(200 * time.Millisecond)
	hold()
	<-done // limiter now drained; release resets the shedding state

	if l.Shedding() {
		t.Fatal("shedding survived a full drain")
	}
	if _, err := l.Acquire(); err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
}

func TestLoadSignal(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 4})
	if got := l.Load(); got != 0 {
		t.Fatalf("idle load = %v, want 0", got)
	}
	var rs []func()
	for i := 0; i < 4; i++ {
		r, err := l.Acquire()
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		rs = append(rs, r)
	}
	if got := l.Load(); got < 1 {
		t.Fatalf("saturated load = %v, want >= 1", got)
	}
	for _, r := range rs {
		r()
	}
	if got := l.Load(); got >= 1 {
		t.Fatalf("drained load = %v, want < 1", got)
	}
}

func TestTryAcquireNeverQueues(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 1, MaxQueue: 8})
	r, err := l.TryAcquire()
	if err != nil {
		t.Fatalf("try acquire: %v", err)
	}
	if _, err := l.TryAcquire(); !errors.Is(err, ErrShed) {
		t.Fatalf("second try acquire err = %v, want ErrShed", err)
	}
	if got := l.Waiting(); got != 0 {
		t.Fatalf("waiting = %d, want 0", got)
	}
	r()
}

func TestConcurrentChurn(t *testing.T) {
	l := NewLimiter(Config{MaxConcurrent: 4, MaxQueue: 8})
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r, err := l.Acquire()
				if err != nil {
					shed.Add(1)
					continue
				}
				served.Add(1)
				r()
			}
		}()
	}
	wg.Wait()
	if l.Inflight() != 0 || l.Waiting() != 0 {
		t.Fatalf("limiter not drained: inflight=%d waiting=%d", l.Inflight(), l.Waiting())
	}
	total := served.Load() + shed.Load()
	if total != 16*200 {
		t.Fatalf("accounted %d of %d acquisitions", total, 16*200)
	}
	if a, q, s := l.admitted.Value(), l.queued.Value(), l.shed.Value(); a+q != served.Load() || s != shed.Load() {
		t.Fatalf("admitted %d queued %d shed %d disagree with observed served=%d shed=%d", a, q, s, served.Load(), shed.Load())
	}
}

func TestRegisterMetrics(t *testing.T) {
	reg := stats.NewRegistry()
	l := NewLimiter(Config{MaxConcurrent: 1})
	l.RegisterMetrics(reg, stats.Labels{"node": "up0"})
	r, err := l.Acquire()
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer r()
	found := map[string]bool{}
	for _, fam := range reg.Snapshot() {
		found[fam.Name] = true
	}
	for _, want := range []string{"overload_admitted_total", "overload_shed_total", "overload_load", "overload_shedding"} {
		if !found[want] {
			t.Fatalf("metric %q not registered (have %v)", want, found)
		}
	}
}
