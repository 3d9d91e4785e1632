package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/httpserver"
)

// fakeNode is a controllable backend.
type fakeNode struct {
	name    string
	served  atomic.Int64
	failing atomic.Bool
	slow    chan struct{} // if non-nil, Serve blocks until it receives
}

func (f *fakeNode) Name() string { return f.name }

func (f *fakeNode) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	if f.failing.Load() {
		return nil, httpserver.OutcomeError, errors.New("node down")
	}
	if f.slow != nil {
		<-f.slow
	}
	f.served.Add(1)
	return &cache.Object{Key: cache.Key(path), Value: []byte(f.name)}, httpserver.OutcomeHit, nil
}

func nodes(n int) ([]Node, []*fakeNode) {
	var ns []Node
	var fs []*fakeNode
	for i := 0; i < n; i++ {
		f := &fakeNode{name: fmt.Sprintf("up%d", i)}
		ns = append(ns, f)
		fs = append(fs, f)
	}
	return ns, fs
}

func TestForwardDistributesAcrossPool(t *testing.T) {
	ns, fs := nodes(4)
	d := New(Config{Name: "nd", Nodes: ns})
	for i := 0; i < 400; i++ {
		if _, _, err := d.Serve("/p"); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range fs {
		if got := f.served.Load(); got != 100 {
			t.Fatalf("node %s served %d, want 100 (even distribution)", f.name, got)
		}
	}
	if d.Stats().Forwarded != 400 {
		t.Fatalf("forwarded = %d", d.Stats().Forwarded)
	}
}

func TestLeastOutstandingPreferred(t *testing.T) {
	// Node up0 is wedged mid-request; new traffic must flow to up1.
	f0 := &fakeNode{name: "up0", slow: make(chan struct{})}
	f1 := &fakeNode{name: "up1"}
	d := New(Config{Name: "nd", Nodes: []Node{f0, f1}})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.Serve("/slow") // occupies up0 (first pick via round-robin)
	}()
	// Wait until the slow request is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := d.Stats()
		busy := false
		for _, n := range st.Nodes {
			if n.Outstanding == 1 {
				busy = true
			}
		}
		if busy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// These ten requests must all land on the idle node.
	for i := 0; i < 10; i++ {
		if _, _, err := d.Serve("/p"); err != nil {
			t.Fatal(err)
		}
	}
	if f1.served.Load() != 10 {
		t.Fatalf("idle node served %d, want 10", f1.served.Load())
	}
	close(f0.slow)
	wg.Wait()
}

func TestFailoverOnServeError(t *testing.T) {
	ns, fs := nodes(3)
	fs[0].failing.Store(true)
	d := New(Config{Name: "nd", Nodes: ns})
	for i := 0; i < 30; i++ {
		obj, _, err := d.Serve("/p")
		if err != nil {
			t.Fatal(err)
		}
		if string(obj.Value) == "up0" {
			t.Fatal("request served by failing node")
		}
	}
	st := d.Stats()
	if st.Failovers < 1 {
		t.Fatal("no failover recorded")
	}
	// The failed node must have been pulled after its first failure.
	for _, n := range st.Nodes {
		if n.Name == "up0" {
			if n.Up {
				t.Fatal("failed node still in distribution list")
			}
			if n.Failures != 1 {
				t.Fatalf("failures = %d, want 1 (pulled immediately)", n.Failures)
			}
		}
	}
}

func TestAllNodesDown(t *testing.T) {
	ns, fs := nodes(2)
	for _, f := range fs {
		f.failing.Store(true)
	}
	d := New(Config{Name: "nd", Nodes: ns})
	_, _, err := d.Serve("/p")
	if !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want ErrNoBackends", err)
	}
	if d.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d", d.Stats().Rejected)
	}
}

// serveWithin runs one Serve and fails the test if it has not returned
// within the deadline, instead of hanging the whole package run.
func serveWithin(t *testing.T, d *Dispatcher, limit time.Duration) (httpserver.Outcome, error) {
	t.Helper()
	type result struct {
		outcome httpserver.Outcome
		err     error
	}
	done := make(chan result, 1)
	go func() {
		_, outcome, err := d.Serve("/p")
		done <- result{outcome, err}
	}()
	select {
	case r := <-done:
		return r.outcome, r.err
	case <-time.After(limit):
		t.Fatalf("Serve over %d nodes did not return within %v", len(d.Stats().Nodes), limit)
		return 0, nil
	}
}

// TestWidePoolTriesEachMemberOnce pins the failover loop on a snapshot wider
// than the 64-member tried mask: a request over 65 failing (or shedding)
// nodes visits each one once and gives up, rather than re-picking a member
// the mask cannot record.
func TestWidePoolTriesEachMemberOnce(t *testing.T) {
	const width = 65
	t.Run("error", func(t *testing.T) {
		ns, fs := nodes(width)
		for _, f := range fs {
			f.failing.Store(true)
		}
		d := New(Config{Name: "nd", Nodes: ns})
		if _, err := serveWithin(t, d, 10*time.Second); !errors.Is(err, ErrNoBackends) {
			t.Fatalf("err = %v, want ErrNoBackends", err)
		}
		st := d.Stats()
		if st.Failovers != width || st.Rejected != 1 {
			t.Fatalf("failovers = %d rejected = %d, want %d and 1", st.Failovers, st.Rejected, width)
		}
		for _, n := range st.Nodes {
			if n.Failures != 1 {
				t.Fatalf("node %s called %d times, want 1", n.Name, n.Failures)
			}
		}
	})
	t.Run("shed", func(t *testing.T) {
		var ns []Node
		for i := 0; i < width; i++ {
			ns = append(ns, &loadNode{name: fmt.Sprintf("up%d", i), shedding: true})
		}
		d := New(Config{Name: "nd", Nodes: ns})
		if outcome, _ := serveWithin(t, d, 10*time.Second); outcome != httpserver.OutcomeShed {
			t.Fatalf("outcome = %v, want shed", outcome)
		}
		st := d.Stats()
		if st.ShedFailovers != width || st.Rejected != 1 || d.HealthyCount() != width {
			t.Fatalf("shed failovers = %d rejected = %d healthy = %d, want %d, 1, %d",
				st.ShedFailovers, st.Rejected, d.HealthyCount(), width, width)
		}
		for _, n := range st.Nodes {
			if n.Sheds != 1 {
				t.Fatalf("node %s called %d times, want 1", n.Name, n.Sheds)
			}
		}
	})
}

func TestEmptyPool(t *testing.T) {
	d := New(Config{Name: "nd"})
	if _, _, err := d.Serve("/p"); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v", err)
	}
}

func TestMarkDownAndUp(t *testing.T) {
	ns, fs := nodes(2)
	d := New(Config{Name: "nd", Nodes: ns})
	if !d.MarkDown("up0") {
		t.Fatal("MarkDown failed")
	}
	if got := d.Healthy(); len(got) != 1 || got[0] != "up1" {
		t.Fatalf("Healthy = %v", got)
	}
	for i := 0; i < 10; i++ {
		d.Serve("/p")
	}
	if fs[0].served.Load() != 0 {
		t.Fatal("downed node received traffic")
	}
	if !d.MarkUp("up0") {
		t.Fatal("MarkUp failed")
	}
	if d.HealthyCount() != 2 {
		t.Fatal("MarkUp did not restore")
	}
	if d.MarkDown("ghost") {
		t.Fatal("MarkDown of unknown node returned true")
	}
}

func TestAddRemove(t *testing.T) {
	d := New(Config{Name: "nd"})
	f := &fakeNode{name: "late"}
	d.Add(f)
	if _, _, err := d.Serve("/p"); err != nil {
		t.Fatal(err)
	}
	if !d.Remove("late") {
		t.Fatal("Remove failed")
	}
	if d.Remove("late") {
		t.Fatal("double Remove returned true")
	}
	if _, _, err := d.Serve("/p"); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v", err)
	}
}

func TestAdvisorsRestoreRecoveredNode(t *testing.T) {
	ns, fs := nodes(2)
	d := New(Config{Name: "nd", Nodes: ns})
	fs[0].failing.Store(true)
	if got := d.CheckNow(); got != 1 {
		t.Fatalf("CheckNow = %d, want 1", got)
	}
	if d.HealthyCount() != 1 {
		t.Fatal("advisor did not pull failing node")
	}
	fs[0].failing.Store(false)
	if got := d.CheckNow(); got != 2 {
		t.Fatalf("CheckNow = %d, want 2", got)
	}
	if d.HealthyCount() != 2 {
		t.Fatal("advisor did not restore recovered node")
	}
}

func TestStartAdvisorsBackground(t *testing.T) {
	ns, fs := nodes(1)
	d := New(Config{Name: "nd", Nodes: ns, ProbeInterval: 2 * time.Millisecond})
	fs[0].failing.Store(true)
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if d.HealthyCount() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("background advisor never pulled the failing node")
}

func TestShutdownIdempotent(t *testing.T) {
	d := New(Config{Name: "nd"})
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDispatchersCompose(t *testing.T) {
	// Two complexes, each a dispatcher over two nodes; a top-level
	// dispatcher routes across complexes (simplified Figure 19).
	nsA, fsA := nodes(2)
	nsB, _ := nodes(2)
	complexA := New(Config{Name: "complexA", Nodes: nsA})
	complexB := New(Config{Name: "complexB", Nodes: nsB})
	top := New(Config{Name: "geo", Nodes: []Node{complexA, complexB}})

	for i := 0; i < 40; i++ {
		if _, _, err := top.Serve("/p"); err != nil {
			t.Fatal(err)
		}
	}
	// Kill all of complex A; traffic must continue via complex B.
	for _, f := range fsA {
		f.failing.Store(true)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := top.Serve("/p"); err != nil {
			t.Fatalf("request failed after complex loss: %v", err)
		}
	}
	if top.Stats().Failovers == 0 {
		t.Fatal("no complex-level failover recorded")
	}
}

func TestNotFoundIsNotAFailure(t *testing.T) {
	// A 404 from a healthy node must not trigger failover or pull the node.
	nf := nodeFunc{name: "nf", fn: func(path string) (*cache.Object, httpserver.Outcome, error) {
		return nil, httpserver.OutcomeNotFound, fmt.Errorf("%w: %q", httpserver.ErrNoRoute, path)
	}}
	d2 := New(Config{Name: "nd2", Nodes: []Node{nf}})
	_, outcome, _ := d2.Serve("/ghost")
	if outcome != httpserver.OutcomeNotFound {
		t.Fatalf("outcome = %v", outcome)
	}
	if d2.Stats().Failovers != 0 || d2.HealthyCount() != 1 {
		t.Fatal("404 treated as node failure")
	}
}

type nodeFunc struct {
	name string
	fn   func(path string) (*cache.Object, httpserver.Outcome, error)
}

func (n nodeFunc) Name() string { return n.name }
func (n nodeFunc) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	return n.fn(path)
}

func TestConcurrentServeAndFailure(t *testing.T) {
	ns, fs := nodes(4)
	d := New(Config{Name: "nd", Nodes: ns})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // chaos: flap nodes
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs[i%4].failing.Store(i%3 == 0)
			d.CheckNow()
			i++
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var failed atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, _, err := d.Serve("/p"); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	// With 4 nodes and at most one failing at a time, hard failures should
	// be rare; mostly we assert no panics/races and bounded rejects.
	if failed.Load() > 2400/4 {
		t.Fatalf("too many failed requests: %d", failed.Load())
	}
}

func BenchmarkDispatchForward(b *testing.B) {
	ns, _ := nodes(8)
	d := New(Config{Name: "nd", Nodes: ns})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Serve("/p"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWeightedDistribution(t *testing.T) {
	// An SMP (weight 4) alongside a UP (weight 1): with all nodes idle the
	// tie-break cycles, but under sustained concurrent load the SMP should
	// carry roughly 4x the traffic. Emulate concurrency by holding
	// requests open.
	smp := &fakeNode{name: "smp", slow: make(chan struct{})}
	up := &fakeNode{name: "up", slow: make(chan struct{})}
	d := New(Config{Name: "nd"})
	d.AddWeighted(smp, 4)
	d.AddWeighted(up, 1)

	var wg sync.WaitGroup
	const inflight = 10
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Serve("/p")
		}()
	}
	// Wait until all ten are held open, then inspect the split.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := d.Stats()
		total := 0
		for _, n := range st.Nodes {
			total += n.Outstanding
		}
		if total == inflight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := d.Stats()
	var smpOut, upOut int
	for _, n := range st.Nodes {
		switch n.Name {
		case "smp":
			smpOut = n.Outstanding
		case "up":
			upOut = n.Outstanding
		}
	}
	close(smp.slow)
	close(up.slow)
	wg.Wait()
	if smpOut != 8 || upOut != 2 {
		t.Fatalf("outstanding split smp=%d up=%d, want 8/2 (weight-proportional)", smpOut, upOut)
	}
	if got := st.Nodes[0].Weight + st.Nodes[1].Weight; got != 5 {
		t.Fatalf("weights = %d, want 5", got)
	}
}

func TestAddWeightedClampsToOne(t *testing.T) {
	d := New(Config{Name: "nd"})
	d.AddWeighted(&fakeNode{name: "n"}, 0)
	if w := d.Stats().Nodes[0].Weight; w != 1 {
		t.Fatalf("weight = %d, want clamped to 1", w)
	}
}
