package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestWarmupGatesReadmission: with a warmup hook installed, Recover enters
// NodeWarming — serves error, Ready is false, LoadSignal is withdrawn —
// until the hook completes; only then does the node report up.
func TestWarmupGatesReadmission(t *testing.T) {
	c := newComplex(t, 1, 2)
	n := c.Nodes()[0]
	release := make(chan struct{})
	n.SetWarmup(func() error {
		<-release
		return nil
	})

	n.Fail()
	if stateOf(n) != NodeDown {
		t.Fatal("node not down after Fail")
	}
	n.Recover()
	if stateOf(n) != NodeWarming {
		t.Fatalf("state = %s, want warming", stateOf(n))
	}
	if n.Ready() {
		t.Fatal("warming node reports ready")
	}
	if got := n.LoadSignal(); got != 0 {
		t.Fatalf("warming node LoadSignal = %v, want 0 (withdrawn)", got)
	}
	if _, _, err := n.Serve("/p"); !errors.Is(err, ErrNodeWarming) {
		t.Fatalf("serve during warmup: err = %v, want ErrNodeWarming", err)
	}

	close(release)
	if !n.WaitReady(5 * time.Second) {
		t.Fatal("node never became ready after warmup completed")
	}
	if _, _, err := n.Serve("/p"); err != nil {
		t.Fatalf("serve after warmup: %v", err)
	}
}

// TestWarmupErrorLeavesNodeDown: a failing warmup must not readmit the node.
func TestWarmupErrorLeavesNodeDown(t *testing.T) {
	c := newComplex(t, 1, 1)
	n := c.Nodes()[0]
	boom := errors.New("render failed")
	calls := 0
	n.SetWarmup(func() error {
		calls++
		if calls == 1 {
			return boom
		}
		return nil
	})

	n.Fail()
	n.Recover()
	deadline := time.Now().Add(5 * time.Second)
	for stateOf(n) != NodeDown {
		if time.Now().After(deadline) {
			t.Fatalf("state = %s, want down after warmup error", stateOf(n))
		}
		time.Sleep(100 * time.Microsecond)
	}

	// A later Recover retries the warmup and succeeds.
	n.Recover()
	if !n.WaitReady(5 * time.Second) {
		t.Fatal("node never recovered on retry")
	}
}

// TestFailDuringWarmupWins: a Fail while the warmup is in flight bumps the
// epoch, so the stale warmup's completion is discarded and the node stays
// down.
func TestFailDuringWarmupWins(t *testing.T) {
	c := newComplex(t, 1, 1)
	n := c.Nodes()[0]
	release := make(chan struct{})
	n.SetWarmup(func() error {
		<-release
		return nil
	})

	n.Fail()
	n.Recover()
	if stateOf(n) != NodeWarming {
		t.Fatal("node not warming")
	}
	n.Fail() // re-fail mid-warmup
	close(release)

	// The stale warmup must not flip the node up.
	time.Sleep(5 * time.Millisecond)
	if stateOf(n) != NodeDown {
		t.Fatalf("state = %s, want down (stale warmup abandoned)", stateOf(n))
	}
}

// TestDoubleFailIsIdempotent: failing an already-down node changes nothing
// and fires no duplicate transitions.
func TestDoubleFailIsIdempotent(t *testing.T) {
	c := newComplex(t, 1, 1)
	n := c.Nodes()[0]
	var mu sync.Mutex
	var transitions []NodeState
	n.SetStateHook(func(name string, from, to NodeState) {
		mu.Lock()
		transitions = append(transitions, to)
		mu.Unlock()
	})

	n.Fail()
	n.Fail()
	n.Fail()
	mu.Lock()
	got := len(transitions)
	mu.Unlock()
	if got != 1 {
		t.Fatalf("transitions = %d, want 1 (double Fail is a no-op)", got)
	}
	if stateOf(n) != NodeDown {
		t.Fatal("node not down")
	}
}

// TestRecoverDuringInFlightServe: requests racing a Fail/Recover cycle
// either succeed or fail with a node-state error — never panic, never wedge.
func TestRecoverDuringInFlightServe(t *testing.T) {
	c := newComplex(t, 1, 2)
	n := c.Nodes()[0]
	n.SetWarmup(func() error { return nil })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := n.ServeCtx(context.Background(), "/p")
				if err != nil && !errors.Is(err, ErrNodeDown) && !errors.Is(err, ErrNodeWarming) {
					t.Errorf("unexpected serve error: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		n.Fail()
		n.Recover()
		n.WaitReady(time.Second)
	}
	close(stop)
	wg.Wait()
	if !n.WaitReady(5 * time.Second) {
		t.Fatal("node did not settle up")
	}
}

// TestLoadSignalThroughStates: the overload signal is withdrawn the moment
// the node leaves NodeUp and restored when it returns.
func TestLoadSignalThroughStates(t *testing.T) {
	c := newComplex(t, 1, 1)
	n := c.Nodes()[0]
	release := make(chan struct{})
	n.SetWarmup(func() error {
		<-release
		return nil
	})

	if got := n.LoadSignal(); got != 0 {
		t.Fatalf("idle up node LoadSignal = %v, want 0", got)
	}
	n.Fail()
	if got := n.LoadSignal(); got != 0 {
		t.Fatalf("down node LoadSignal = %v, want 0", got)
	}
	n.Recover()
	if got := n.LoadSignal(); got != 0 {
		t.Fatalf("warming node LoadSignal = %v, want 0", got)
	}
	close(release)
	if !n.WaitReady(5 * time.Second) {
		t.Fatal("node never became ready")
	}
	if got := n.LoadSignal(); got != 0 {
		t.Fatalf("recovered idle node LoadSignal = %v, want 0", got)
	}
}

// TestAdviseDuringWarmup: the advisor sweep treats a warming node like a
// down one — out of the distribution list until the warmup completes.
func TestAdviseDuringWarmup(t *testing.T) {
	c := newComplex(t, 1, 2)
	n := c.Nodes()[0]
	release := make(chan struct{})
	n.SetWarmup(func() error {
		<-release
		return nil
	})

	n.Fail()
	if got := c.Advise(); got != 1 {
		t.Fatalf("healthy = %d, want 1 after fail", got)
	}
	n.Recover()
	if got := c.Advise(); got != 1 {
		t.Fatalf("healthy = %d, want 1 during warmup", got)
	}
	close(release)
	if !n.WaitReady(5 * time.Second) {
		t.Fatal("node never became ready")
	}
	if got := c.Advise(); got != 2 {
		t.Fatalf("healthy = %d, want 2 after warmup", got)
	}
}

// stateOf returns n's lifecycle state.
func stateOf(n *Node) NodeState { return NodeState(n.state.Load()) }
