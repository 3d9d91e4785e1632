package cluster

import (
	"errors"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/httpserver"
)

func gen() core.Generator {
	return func(key cache.Key, version int64) (*cache.Object, error) {
		return &cache.Object{Key: key, Value: []byte("page:" + string(key)), Version: version}, nil
	}
}

func newComplex(t *testing.T, frames, perFrame int) *Complex {
	t.Helper()
	return NewComplex(Config{
		Name:          "tokyo",
		Frames:        frames,
		NodesPerFrame: perFrame,
		Generator:     gen(),
		Version:       func() int64 { return 1 },
	})
}

func TestComplexTopology(t *testing.T) {
	c := newComplex(t, 3, 8)
	if len(c.Frames) != 3 {
		t.Fatalf("frames = %d", len(c.Frames))
	}
	if got := len(c.Nodes()); got != 24 {
		t.Fatalf("nodes = %d, want 24", got)
	}
	if c.Caches.Len() != 24 {
		t.Fatalf("cache group = %d", c.Caches.Len())
	}
	if c.Dispatcher.HealthyCount() != 24 {
		t.Fatalf("healthy = %d", c.Dispatcher.HealthyCount())
	}
	if got := c.Nodes()[0].Name(); got != "tokyo-sp2-0-up0" {
		t.Fatalf("first node = %q: node naming drift", got)
	}
}

func TestComplexServes(t *testing.T) {
	c := newComplex(t, 1, 2)
	obj, outcome, err := c.Serve("/p")
	if err != nil || outcome != httpserver.OutcomeMiss {
		t.Fatalf("Serve = %v %v", outcome, err)
	}
	if string(obj.Value) != "page:/p" {
		t.Fatalf("body = %q", obj.Value)
	}
}

func TestNodeFailClearsCacheAndErrors(t *testing.T) {
	c := cache.New("n")
	c.Put(&cache.Object{Key: "/p", Value: []byte("x")})
	srv := httpserver.New("n", c, gen(), nil)
	n := NewNode("n", srv, c)
	n.Fail()
	if stateOf(n) != NodeDown {
		t.Fatal("not down after Fail")
	}
	if _, _, err := n.Serve("/p"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("cache survived the crash")
	}
	n.Recover()
	if stateOf(n) == NodeDown {
		t.Fatal("still down after Recover")
	}
	// Recovered node serves again (cold cache -> miss).
	if _, outcome, err := n.Serve("/p"); err != nil || outcome != httpserver.OutcomeMiss {
		t.Fatalf("post-recovery = %v %v", outcome, err)
	}
}

func TestNodeFailureDegradesElegantly(t *testing.T) {
	c := newComplex(t, 1, 4)
	c.Nodes()[0].Fail()
	// No advise needed: the dispatcher pulls the node on its first error.
	for i := 0; i < 40; i++ {
		if _, _, err := c.Serve("/p"); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	if c.Dispatcher.HealthyCount() != 3 {
		t.Fatalf("healthy = %d, want 3", c.Dispatcher.HealthyCount())
	}
}

func TestFrameFailure(t *testing.T) {
	c := newComplex(t, 2, 4)
	c.FailFrame(0)
	if c.Dispatcher.HealthyCount() != 4 {
		t.Fatalf("healthy = %d, want 4", c.Dispatcher.HealthyCount())
	}
	for i := 0; i < 20; i++ {
		if _, _, err := c.Serve("/p"); err != nil {
			t.Fatalf("serve after frame loss: %v", err)
		}
	}
	c.RecoverFrame(0)
	if c.Dispatcher.HealthyCount() != 8 {
		t.Fatalf("healthy after recovery = %d", c.Dispatcher.HealthyCount())
	}
	// Out-of-range indices are no-ops.
	c.FailFrame(-1)
	c.FailFrame(99)
	c.RecoverFrame(-1)
	c.RecoverFrame(99)
}

func TestComplexTotalFailure(t *testing.T) {
	c := newComplex(t, 2, 2)
	c.FailAll()
	if c.Dispatcher.HealthyCount() != 0 {
		t.Fatalf("healthy = %d", c.Dispatcher.HealthyCount())
	}
	if _, _, err := c.Serve("/p"); err == nil {
		t.Fatal("dead complex served")
	}
	c.RecoverAll()
	if c.Dispatcher.HealthyCount() != 4 {
		t.Fatalf("healthy after recovery = %d", c.Dispatcher.HealthyCount())
	}
	if _, _, err := c.Serve("/p"); err != nil {
		t.Fatalf("serve after recovery: %v", err)
	}
}

func TestAdviseRestoresRecoveredNodes(t *testing.T) {
	c := newComplex(t, 1, 2)
	n := c.Nodes()[0]
	n.Fail()
	c.Serve("/p") // dispatcher pulls the failed node on error or picks other
	c.Advise()
	if c.Dispatcher.HealthyCount() != 1 {
		t.Fatalf("healthy = %d, want 1", c.Dispatcher.HealthyCount())
	}
	n.Recover()
	if got := c.Advise(); got != 2 {
		t.Fatalf("Advise = %d, want 2", got)
	}
}

func TestBroadcastReachesAllNodeCaches(t *testing.T) {
	c := newComplex(t, 1, 8)
	// The trigger monitor's distribution step.
	c.Caches.BroadcastPut(&cache.Object{Key: "/hot", Value: []byte("fresh"), Version: 2})
	for i := 0; i < 8; i++ {
		obj, outcome, err := c.Serve("/hot")
		if err != nil || outcome != httpserver.OutcomeHit {
			t.Fatalf("request %d: %v %v", i, outcome, err)
		}
		if string(obj.Value) != "fresh" {
			t.Fatalf("body = %q", obj.Value)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := NewComplex(Config{Name: "x"})
	if len(c.Frames) != 1 || len(c.Frames[0].Nodes) != 8 {
		t.Fatalf("defaults: %d frames x %d nodes", len(c.Frames), len(c.Frames[0].Nodes))
	}
}

func TestLedger(t *testing.T) {
	var l Ledger
	if l.Availability() != 1 {
		t.Fatal("empty ledger should read fully available")
	}
	for i := 0; i < 98; i++ {
		l.Record(true)
	}
	l.Record(false)
	l.Record(false)
	if got := l.Availability(); got != 0.98 {
		t.Fatalf("availability = %v", got)
	}
	if l.Outages() != 1 {
		t.Fatalf("outages = %d, want 1 contiguous run", l.Outages())
	}
	l.Record(true)
	l.Record(false)
	if l.Outages() != 2 {
		t.Fatalf("outages = %d, want 2", l.Outages())
	}
}

func TestLedgerStartsDown(t *testing.T) {
	var l Ledger
	l.Record(false)
	if l.Outages() != 1 {
		t.Fatalf("outages = %d", l.Outages())
	}
}
