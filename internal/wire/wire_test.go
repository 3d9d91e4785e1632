package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/netsim"
)

// isTransient reports whether err is a transport-level failure (partition,
// dial failure, lost connection), the errors db.Replicator retries.
func isTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// startEcho starts a server answering TypePing with its request payload.
func startEcho(t *testing.T, opts ...ServerOption) (*Server, string) {
	t.Helper()
	s := NewServer("echo", opts...)
	s.Handle(TypePing, func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(s.Close)
	return s, addr.String()
}

// TestClientServerRPC covers the basic request/response path plus metrics
// and state-hook accounting.
func TestClientServerRPC(t *testing.T) {
	var events []string
	var evMu sync.Mutex
	hook := func(name, event, detail string) {
		evMu.Lock()
		events = append(events, name+":"+event)
		evMu.Unlock()
	}
	_, addr := startEcho(t)
	m := NewMetrics()
	c := Dial("t", addr, WithClientMetrics(m), WithClientStateHook(hook))
	defer c.Close()

	for i := 0; i < 5; i++ {
		payload := []byte(fmt.Sprintf("ping-%d", i))
		resp, err := c.Call(context.Background(), TypePing, payload)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(resp, payload) {
			t.Fatalf("call %d: echo mismatch %q", i, resp)
		}
	}
	if got := m.FramesSent.Value(); got != 5 {
		t.Fatalf("frames sent = %d, want 5", got)
	}
	if got := m.FramesReceived.Value(); got != 5 {
		t.Fatalf("frames received = %d, want 5", got)
	}
	if m.BytesSent.Value() == 0 || m.BytesReceived.Value() == 0 {
		t.Fatal("byte counters did not move")
	}
	if m.Connects.Value() == 0 {
		t.Fatal("connects did not count")
	}
	if m.RPCSeconds.Count() != 5 {
		t.Fatalf("rpc histogram observed %d, want 5", m.RPCSeconds.Count())
	}
	// Loopback is a clean link: no call may fail and no connection redial.
	if m.CallErrors.Value() != 0 || m.Reconnects.Value() != 0 {
		t.Fatalf("call errors = %d reconnects = %d on loopback, want 0 and 0",
			m.CallErrors.Value(), m.Reconnects.Value())
	}
	evMu.Lock()
	defer evMu.Unlock()
	if len(events) == 0 || events[0] != "t:connect" {
		t.Fatalf("state hook events = %v, want leading t:connect", events)
	}
}

// TestRemoteErrorsAreNotTransient pins the error taxonomy: a handler
// failure and a missing handler both surface as *RemoteError, which retry
// layers must not treat as a link problem.
func TestRemoteErrorsAreNotTransient(t *testing.T) {
	s, addr := startEcho(t)
	s.Handle(TypeLSN, func(p []byte) ([]byte, error) { return nil, errors.New("handler boom") })
	c := Dial("t", addr)
	defer c.Close()

	_, err := c.Call(context.Background(), TypeLSN, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "handler boom" {
		t.Fatalf("handler error: got %v", err)
	}
	if isTransient(err) {
		t.Fatal("remote handler error classified transient")
	}

	_, err = c.Call(context.Background(), TypeServe, nil)
	if !errors.As(err, &re) {
		t.Fatalf("missing handler: got %v", err)
	}
	if isTransient(err) {
		t.Fatal("missing-handler error classified transient")
	}
}

// TestClientReconnect severs every server-side connection and requires the
// client to redial transparently, counting the reconnect.
func TestClientReconnect(t *testing.T) {
	s, addr := startEcho(t)
	m := NewMetrics()
	c := Dial("t", addr, WithClientMetrics(m))
	defer c.Close()

	// Fill the pool first (connections are dialed lazily, one per call),
	// so the redial after the drop is a reconnect, not pool growth.
	for i := 0; i < poolSize; i++ {
		if _, err := c.Call(context.Background(), TypePing, []byte("a")); err != nil {
			t.Fatalf("warm-up call %d: %v", i, err)
		}
	}
	if n := s.DropConnections(); n == 0 {
		t.Fatal("no connections to drop")
	}
	// The drop races the client noticing; retry until the redial lands.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Call(context.Background(), TypePing, []byte("b"))
		if err == nil {
			break
		}
		if !isTransient(err) {
			t.Fatalf("reconnect path returned non-transient error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if m.Reconnects.Value() == 0 {
		t.Fatal("reconnect not counted")
	}
}

// TestClientBackoffFailFast requires calls during the reconnect backoff
// window to fail immediately with a transient error instead of redialing a
// dead address per call.
func TestClientBackoffFailFast(t *testing.T) {
	dials := 0
	c := Dial("t", "unreachable:1",
		WithReconnectBackoff(time.Second, time.Second),
		WithDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
			dials++
			return nil, errors.New("refused")
		}))
	defer c.Close()

	if _, err := c.Call(context.Background(), TypePing, nil); !isTransient(err) {
		t.Fatalf("first call: want transient error, got %v", err)
	}
	start := time.Now()
	_, err := c.Call(context.Background(), TypePing, nil)
	if !isTransient(err) {
		t.Fatalf("second call: want transient error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("call during backoff took %v, want fail-fast", elapsed)
	}
	if dials != 1 {
		t.Fatalf("dialed %d times, want 1 (backoff gates the second)", dials)
	}
}

// TestClientPartitionTaxonomy runs the fault-injection contract: while the
// partition check reports true, calls fail with ErrPartitioned (transient),
// live connections are dropped and counted; after the heal the client
// reconnects and serves again.
func TestClientPartitionTaxonomy(t *testing.T) {
	_, addr := startEcho(t)
	var partitioned atomic.Bool
	m := NewMetrics()
	c := Dial("t", addr,
		WithClientMetrics(m),
		WithReconnectBackoff(time.Millisecond, time.Millisecond),
		WithPartitionCheck(partitioned.Load))
	defer c.Close()

	if _, err := c.Call(context.Background(), TypePing, nil); err != nil {
		t.Fatalf("pre-partition call: %v", err)
	}

	partitioned.Store(true)
	_, err := c.Call(context.Background(), TypePing, nil)
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned call: got %v, want ErrPartitioned", err)
	}
	if !isTransient(err) {
		t.Fatal("ErrPartitioned must be transient")
	}
	if m.PartitionDrops.Value() == 0 {
		t.Fatal("live connection not dropped on partition")
	}

	partitioned.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Call(context.Background(), TypePing, nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after heal")
		}
		time.Sleep(time.Millisecond)
	}
	if m.Reconnects.Value() == 0 {
		t.Fatal("post-heal reconnect not counted")
	}
}

// TestClientInFlightWindow verifies the bounded window: with the window
// full, further calls fail at their deadline instead of queueing, and the
// gauge's high-water mark records the occupancy.
func TestClientInFlightWindow(t *testing.T) {
	release := make(chan struct{})
	s := NewServer("slow")
	s.Handle(TypePing, func(p []byte) ([]byte, error) {
		if len(p) > 0 {
			<-release // only the windowed calls hold their slot
		}
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer s.Close()

	m := NewMetrics()
	c := Dial("t", addr.String(), WithClientMetrics(m))
	defer c.Close()
	// Fill the connection pool first: the windowed calls below arrive at
	// once, and a cold pool turns calls away while its dials are in flight.
	for i := 0; i < poolSize; i++ {
		if _, err := c.Call(context.Background(), TypePing, nil); err != nil {
			t.Fatalf("warm-up call %d: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < maxInFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(context.Background(), TypePing, []byte("hold")); err != nil {
				t.Errorf("windowed call: %v", err)
			}
		}()
	}
	// Wait until every slot is held.
	deadline := time.Now().Add(5 * time.Second)
	for m.InFlight.Value() != maxInFlight {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d (at %d)", maxInFlight, m.InFlight.Value())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, TypePing, nil); err == nil {
		t.Fatal("call beyond the window succeeded with the window full")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call beyond the window: got %v, want deadline via full window", err)
	}

	close(release)
	wg.Wait()
	if hw := m.InFlight.Max(); hw != maxInFlight {
		t.Fatalf("in-flight high-water = %d, want %d", hw, maxInFlight)
	}
	if m.InFlight.Value() != 0 {
		t.Fatalf("in-flight gauge leaked: %d", m.InFlight.Value())
	}
}

// TestShaperDelaysFrames wires a WAN-shaped link and requires the call to
// pay its one-way delay.
func TestShaperDelaysFrames(t *testing.T) {
	_, addr := startEcho(t)
	link := netsim.LinkSpec{DownKbps: 10_000, RTT: 40 * time.Millisecond, Efficiency: 1}
	c := Dial("t", addr, WithShaper(ShaperFromLink(link)))
	defer c.Close()

	start := time.Now()
	if _, err := c.Call(context.Background(), TypePing, nil); err != nil {
		t.Fatalf("call: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("shaped call took %v, want >= one-way RTT/2 of 20ms", elapsed)
	}
}

// TestReplicationOverWire ships a master's log to a replica process over
// TCP, severs the link mid-stream, and requires in-order convergence after
// the heal — the park-and-replay semantics of local replication, networked.
func TestReplicationOverWire(t *testing.T) {
	replica := db.New("replica")
	s := NewServer("replica")
	RegisterReplica(s, replica)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer s.Close()

	master := db.New("master")
	master.CreateTable("results")
	c := Dial("repl", addr.String(),
		WithCallTimeout(200*time.Millisecond),
		WithReconnectBackoff(time.Millisecond, 5*time.Millisecond))
	defer c.Close()
	rc := NewReplicaClient(c)

	repl := db.StartReplicationTo(master, rc)
	defer repl.Stop()

	for i := 0; i < 5; i++ {
		if _, err := master.Commit(master.NewTx().Put("results", fmt.Sprintf("ev%d", i),
			map[string]string{"n": fmt.Sprint(i)})); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if !repl.WaitCaughtUp(5 * time.Second) {
		t.Fatalf("replica never caught up: lsn %d vs %d", replica.LSN(), master.LSN())
	}

	// Sever the link mid-stream and keep committing.
	s.DropConnections()
	for i := 5; i < 10; i++ {
		if _, err := master.Commit(master.NewTx().Put("results", fmt.Sprintf("ev%d", i),
			map[string]string{"n": fmt.Sprint(i)})); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if !repl.WaitCaughtUp(5 * time.Second) {
		t.Fatalf("replica never converged after drop: lsn %d vs %d", replica.LSN(), master.LSN())
	}
	if replica.LSN() != master.LSN() {
		t.Fatalf("replica LSN %d != master %d", replica.LSN(), master.LSN())
	}
	row, ok, err := replica.Get("results", "ev9")
	if err != nil || !ok || row.Cols["n"] != "9" {
		t.Fatalf("replica row ev9: %v %v %v", row, ok, err)
	}
}

// TestGroupClientFanOutAndDebt drives the push plane over the wire: a put
// reaches every node; with one node unreachable the push downgrades, and
// when even the invalidation cannot be delivered the debt is recorded and
// replayed on recovery so the stale entry is purged.
func TestGroupClientFanOutAndDebt(t *testing.T) {
	newNode := func(name string) (*cache.Cache, *Server, string) {
		c := cache.New(name)
		s := NewServer(name)
		RegisterStore(s, c)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("%s listen: %v", name, err)
		}
		return c, s, addr.String()
	}
	c1, s1, a1 := newNode("up0")
	c2, s2, a2 := newNode("up1")
	defer s1.Close()
	defer s2.Close()

	clientFor := func(name, addr string) *StoreClient {
		return NewStoreClient(name, Dial(name, addr,
			WithCallTimeout(100*time.Millisecond),
			WithReconnectBackoff(time.Millisecond, 5*time.Millisecond)))
	}
	g := NewGroupClient(
		[]*StoreClient{clientFor("up0", a1), clientFor("up1", a2)},
		WithGroupRetryPolicy(cache.RetryPolicy{
			MaxAttempts: 2, Backoff: time.Millisecond, MaxBackoff: time.Millisecond,
			Sleep: func(time.Duration) {}}),
		WithFlushInterval(2*time.Millisecond))
	defer g.Close()

	obj := &cache.Object{Key: "/en/home", Value: []byte("v1"), Version: 1}
	g.ApplyPut(obj)
	for _, c := range []*cache.Cache{c1, c2} {
		if got, ok := c.Get("/en/home"); !ok || !bytes.Equal(got.Value, []byte("v1")) {
			t.Fatalf("%s missed the broadcast", c.Name())
		}
	}

	// Take node 2's process down entirely: push, retry, and the downgrade
	// invalidation all fail, leaving recorded debt.
	s2.Close()
	obj2 := &cache.Object{Key: "/en/home", Value: []byte("v2"), Version: 2}
	g.ApplyPut(obj2)
	if got, ok := c1.Get("/en/home"); !ok || !bytes.Equal(got.Value, []byte("v2")) {
		t.Fatal("reachable node did not receive v2")
	}
	if g.PendingDebt() == 0 {
		t.Fatal("unreachable node accrued no invalidation debt")
	}
	// Node 2 still holds v1 — exactly the stale copy the debt exists to kill.
	if _, ok := c2.Get("/en/home"); !ok {
		t.Fatal("test premise broken: node 2 should still hold v1")
	}

	// The node's process comes back on the same address (its cache survived,
	// stale v1 and all). The flusher must settle the debt unprompted.
	s2b := NewServer("up1")
	RegisterStore(s2b, c2)
	if _, err := s2b.Listen(a2); err != nil {
		t.Fatalf("relisten: %v", err)
	}
	defer s2b.Close()

	deadline := time.Now().Add(5 * time.Second)
	for g.PendingDebt() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("debt never settled: %d outstanding", g.PendingDebt())
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := c2.Get("/en/home"); ok {
		t.Fatal("stale entry survived debt replay")
	}
}

// opLog is a node-side store in front of a cache that logs the puts and
// invalidations it applies, in arrival order.
type opLog struct {
	*cache.Cache
	mu  sync.Mutex
	ops []string
}

func (l *opLog) record(op string) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

func (l *opLog) ApplyPut(obj *cache.Object) {
	l.record("put " + string(obj.Key))
	l.Cache.ApplyPut(obj)
}

func (l *opLog) ApplyInvalidate(key cache.Key) int {
	l.record("inv " + string(key))
	return l.Cache.ApplyInvalidate(key)
}

// since returns the ops logged after the first n.
func (l *opLog) since(n int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.ops[n:]...)
}

func (l *opLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// batchNode is one serving node for the group tests: its logged cache
// behind RegisterStore on a loopback server with its own transport metrics.
type batchNode struct {
	name    string
	store   *opLog
	server  *Server
	metrics *Metrics
	addr    string
}

func startBatchNode(t *testing.T, name string) *batchNode {
	t.Helper()
	n := &batchNode{name: name, store: &opLog{Cache: cache.New(name)}, metrics: NewMetrics()}
	n.server = NewServer(name, WithServerMetrics(n.metrics))
	RegisterStore(n.server, n.store)
	addr, err := n.server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("%s listen: %v", name, err)
	}
	t.Cleanup(n.server.Close)
	n.addr = addr.String()
	return n
}

// wave returns n objects /k0../k<n-1> at version v.
func wave(n int, v int64) []*cache.Object {
	objs := make([]*cache.Object, n)
	for i := range objs {
		objs[i] = &cache.Object{Key: cache.Key(fmt.Sprintf("/k%d", i)),
			Value: []byte(fmt.Sprintf("k%d@v%d", i, v)), Version: v}
	}
	return objs
}

// TestGroupClientBatchIsOneFramePerNode: a 300-object wave over four nodes
// crosses the wire as exactly one put-batch frame (and one ack) per node.
func TestGroupClientBatchIsOneFramePerNode(t *testing.T) {
	var nodes []*batchNode
	var members []*StoreClient
	for i := 0; i < 4; i++ {
		n := startBatchNode(t, fmt.Sprintf("up%d", i))
		nodes = append(nodes, n)
		members = append(members, NewStoreClient(n.name, Dial(n.name, n.addr)))
	}
	g := NewGroupClient(members, WithFlushInterval(time.Hour))
	defer g.Close()

	objs := wave(300, 1)
	g.ApplyBatch(objs)
	for _, n := range nodes {
		if got := n.metrics.FramesReceived.Value(); got != 1 {
			t.Fatalf("%s received %d frames for one wave, want 1", n.name, got)
		}
		// The node counts its ack only after the write returns, which can be
		// after the client has read it and ApplyBatch has returned.
		deadline := time.Now().Add(2 * time.Second)
		for n.metrics.FramesSent.Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := n.metrics.FramesSent.Value(); got != 1 {
			t.Fatalf("%s sent %d frames for one wave, want 1 ack", n.name, got)
		}
		if got := n.store.since(0); len(got) != len(objs) || got[0] != "put /k0" || got[299] != "put /k299" {
			t.Fatalf("%s applied %d ops, want the 300 puts in order", n.name, len(got))
		}
	}
}

// TestGroupClientBatchDowngradeAndSettle partitions one of three nodes:
// that node alone takes MaxAttempts batch attempts, then every key
// downgrades (hook per key, debt per undeliverable invalidation) while the
// others receive the whole wave. After the heal the debt settles before the
// next wave reaches the node, so the stale copies die and the fresh page
// that re-uses a debt key survives.
func TestGroupClientBatchDowngradeAndSettle(t *testing.T) {
	up0, up1, cut := startBatchNode(t, "up0"), startBatchNode(t, "up1"), startBatchNode(t, "cut")
	var partitioned atomic.Bool
	clientFor := func(n *batchNode, opts ...ClientOption) *StoreClient {
		opts = append(opts, WithCallTimeout(time.Second),
			WithReconnectBackoff(time.Millisecond, 5*time.Millisecond))
		return NewStoreClient(n.name, Dial(n.name, n.addr, opts...))
	}
	var hookMu sync.Mutex
	var downgraded []string
	const attempts = 3
	g := NewGroupClient(
		[]*StoreClient{clientFor(up0), clientFor(up1), clientFor(cut, WithPartitionCheck(partitioned.Load))},
		WithGroupRetryPolicy(cache.RetryPolicy{
			MaxAttempts: attempts, Backoff: time.Millisecond, MaxBackoff: time.Millisecond,
			Sleep: func(time.Duration) {}}),
		WithGroupDowngradeHook(func(node string, key cache.Key) {
			hookMu.Lock()
			downgraded = append(downgraded, node+" "+string(key))
			hookMu.Unlock()
		}),
		// No background flush: only the next wave may settle the debt.
		WithFlushInterval(time.Hour))
	defer g.Close()

	g.ApplyBatch(wave(10, 1))
	partitioned.Store(true)
	g.ApplyBatch(wave(10, 2))

	if got := g.pushFailures.Value(); got != attempts {
		t.Fatalf("failed batch attempts = %d, want %d (the cut node's MaxAttempts)", got, attempts)
	}
	if got := g.pushRetries.Value(); got != attempts-1 {
		t.Fatalf("retries = %d, want %d", got, attempts-1)
	}
	hookMu.Lock()
	if len(downgraded) != 10 || downgraded[0] != "cut /k0" || downgraded[9] != "cut /k9" {
		t.Fatalf("downgrade hook calls = %q, want cut /k0../k9", downgraded)
	}
	hookMu.Unlock()
	if got := g.PendingDebt(); got != 10 {
		t.Fatalf("pending debt = %d, want one invalidation per key", got)
	}
	for _, n := range []*batchNode{up0, up1} {
		for _, obj := range wave(10, 2) {
			if got, ok := n.store.Peek(obj.Key); !ok || got.Version != 2 {
				t.Fatalf("%s: %s not at v2 beside the partitioned node", n.name, obj.Key)
			}
		}
	}
	if got, ok := cut.store.Peek("/k5"); !ok || got.Version != 1 {
		t.Fatal("test premise broken: the cut node should still hold v1")
	}

	partitioned.Store(false)
	mark := cut.store.len()
	next := []*cache.Object{
		{Key: "/k0", Value: []byte("k0@v3"), Version: 3},
		{Key: "/new", Value: []byte("new@v3"), Version: 3},
	}
	g.ApplyBatch(next)
	if got := g.PendingDebt(); got != 0 {
		t.Fatalf("pending debt after the next wave = %d, want 0", got)
	}
	ops := cut.store.since(mark)
	if len(ops) != 12 {
		t.Fatalf("cut node ops after heal = %q, want 10 invalidations then 2 puts", ops)
	}
	for i, op := range ops[:10] {
		if !strings.HasPrefix(op, "inv ") {
			t.Fatalf("op %d after heal = %q: the wave overtook the debt (%q)", i, op, ops)
		}
	}
	if ops[10] != "put /k0" || ops[11] != "put /new" {
		t.Fatalf("wave ops = %q, want put /k0, put /new", ops[10:])
	}
	if got, ok := cut.store.Peek("/k0"); !ok || got.Version != 3 {
		t.Fatal("the fresh /k0 did not survive the debt replay")
	}
	if present(cut.store.Peek("/k5")) {
		t.Fatal("stale /k5 survived the debt replay")
	}
}

// TestPutBatchSplitsAtMaxPayload sends a wave larger than one frame can
// carry: it arrives complete and in order over several frames, none above
// the cap; an object no frame can carry is an error, not a panic.
func TestPutBatchSplitsAtMaxPayload(t *testing.T) {
	const size = 4 << 20
	objs := make([]*cache.Object, 5)
	for i := range objs {
		objs[i] = &cache.Object{Key: cache.Key(fmt.Sprintf("/big%d", i)),
			Value: bytes.Repeat([]byte{byte('a' + i)}, size), Version: 1}
	}
	payloads, err := batchPayloads(objs)
	if err != nil {
		t.Fatalf("batchPayloads: %v", err)
	}
	if len(payloads) < 2 {
		t.Fatalf("%d MiB wave fit in %d payloads, want a split", 5*size>>20, len(payloads))
	}
	for i, p := range payloads {
		if len(p) > MaxPayload {
			t.Fatalf("payload %d is %d bytes, above MaxPayload", i, len(p))
		}
	}

	n := startBatchNode(t, "big")
	sc := NewStoreClient("big", Dial("big", n.addr, WithCallTimeout(10*time.Second)))
	defer sc.Close()
	if err := sc.putPayloads(payloads); err != nil {
		t.Fatalf("put-batch: %v", err)
	}
	if got := n.metrics.FramesReceived.Value(); got != int64(len(payloads)) {
		t.Fatalf("node received %d frames, want %d", got, len(payloads))
	}
	want := []string{"put /big0", "put /big1", "put /big2", "put /big3", "put /big4"}
	if got := n.store.since(0); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("node applied %q, want %q", got, want)
	}
	if got, ok := n.store.Peek("/big4"); !ok || !bytes.Equal(got.Value, objs[4].Value) {
		t.Fatal("last object arrived damaged")
	}

	tooBig := &cache.Object{Key: "/huge", Value: make([]byte, MaxPayload)}
	if _, err := batchPayloads([]*cache.Object{tooBig}); err == nil {
		t.Fatal("batchPayloads accepted an object no frame can carry")
	}
}

// gatedStore holds every put until its gate opens: a node that has stalled.
type gatedStore struct {
	*opLog
	gate chan struct{}
}

func (s *gatedStore) ApplyPut(obj *cache.Object) {
	<-s.gate
	s.opLog.ApplyPut(obj)
}

// TestGroupClientBatchStalledNodeDelaysOnlyItself: nodes are pushed in
// parallel, so while the first member stalls the others already hold the
// wave; ApplyBatch itself returns only once the stalled node is done.
func TestGroupClientBatchStalledNodeDelaysOnlyItself(t *testing.T) {
	stalled := &gatedStore{opLog: &opLog{Cache: cache.New("stalled")}, gate: make(chan struct{})}
	s := NewServer("stalled")
	RegisterStore(s, stalled)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer s.Close()
	up0, up1 := startBatchNode(t, "up0"), startBatchNode(t, "up1")
	clientFor := func(name, addr string) *StoreClient {
		return NewStoreClient(name, Dial(name, addr, WithCallTimeout(5*time.Second)))
	}
	g := NewGroupClient([]*StoreClient{
		clientFor("stalled", addr.String()), clientFor("up0", up0.addr), clientFor("up1", up1.addr),
	}, WithFlushInterval(time.Hour))
	defer g.Close()

	done := make(chan struct{})
	go func() {
		g.ApplyBatch(wave(20, 1))
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for up0.store.len() < 20 || up1.store.len() < 20 {
		if time.Now().After(deadline) {
			close(stalled.gate)
			t.Fatalf("healthy nodes hold %d and %d of 20 objects while one node stalls",
				up0.store.len(), up1.store.len())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("ApplyBatch returned before the stalled node took the wave")
	default:
	}
	close(stalled.gate)
	<-done
	if got := stalled.len(); got != 20 {
		t.Fatalf("stalled node applied %d of 20 objects after release", got)
	}
}

// present reports the ok of a cache Peek: whether the key is cached.
func present(_ *cache.Object, ok bool) bool { return ok }
