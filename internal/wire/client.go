package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// StateHook observes connection-lifecycle transitions (connect, reconnect,
// disconnect, partition_drop, accept). The observability journal wires in
// here; the callback runs on transport goroutines and must not block.
type StateHook func(name, event, detail string)

// ErrClientClosed is returned by calls on a closed client.
var ErrClientClosed = errors.New("wire: client closed")

// ErrPartitioned is returned while an injected link partition holds the
// client's link down. It is transient: the fault heals, the client redials.
var ErrPartitioned = transientError{errors.New("wire: link partitioned")}

// transientError marks failures the caller should treat as retryable —
// the link is down or flapping, not the protocol broken. db.Replicator
// checks for the Transient method to decide between parking delivery and
// stopping dead.
type transientError struct{ err error }

func (e transientError) Error() string   { return e.err.Error() }
func (e transientError) Unwrap() error   { return e.err }
func (e transientError) Transient() bool { return true }

// UnavailableError reports a failed dial or a connection lost mid-call.
type UnavailableError struct {
	Addr string
	Err  error
}

// Error implements error.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("wire: %s unavailable: %v", e.Addr, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *UnavailableError) Unwrap() error { return e.Err }

// Transient marks the error retryable.
func (e *UnavailableError) Transient() bool { return true }

// RemoteError is a TypeError response: the far end executed the handler
// and it failed. Not transient — retrying the same request will fail the
// same way unless the remote state changes.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "wire: remote: " + e.Msg }

// Client is the dialing end of the transport: a fixed-size connection pool
// to one address, RPCs correlated by frame id, per-call deadlines, and a
// bounded in-flight window so a slow or dead peer exerts backpressure
// instead of accumulating unbounded queued requests (the same design rule
// as the trigger monitor's MaxPending high-water mark).
type Client struct {
	name string
	addr string

	dialer      func(addr string, timeout time.Duration) (net.Conn, error)
	callTimeout time.Duration
	backoffMin  time.Duration
	backoffMax  time.Duration
	partitioned func() bool
	shape       func(bytes int) time.Duration
	metrics     *Metrics
	hook        StateHook

	window chan struct{} // maxInFlight bounded in-flight slots
	nextID atomic.Uint64

	mu            sync.Mutex
	conns         []*clientConn
	rr            int // round-robin cursor
	dialing       int
	backoff       time.Duration
	notBefore     time.Time
	lastDialErr   error
	everConnected bool
	// droppedConns counts connections lost since the last accounting; a
	// successful dial consumes one and reports as a reconnect, so pool
	// growth beyond the first connection is not miscounted as recovery.
	droppedConns int
	closed       bool
}

// clientConn is one pooled connection with its demultiplexing read loop.
type clientConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint64]chan Frame
	dead    bool
}

// Transport constants.
const (
	// poolSize is how many TCP connections a client multiplexes RPCs over:
	// one is enough for correctness, a second hides head-of-line blocking
	// behind large page pushes.
	poolSize = 2
	// maxInFlight bounds simultaneous outstanding RPCs per client. When the
	// window is full, Call blocks until a slot frees or the context ends —
	// backpressure, not queue growth.
	maxInFlight = 64
	// dialTimeout bounds each connection attempt.
	dialTimeout = time.Second
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithCallTimeout sets the default per-RPC deadline applied when the
// caller's context carries none (default 2s). It is a test seam: timeout
// tests shorten it so they run fast.
func WithCallTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.callTimeout = d
		}
	}
}

// WithReconnectBackoff sets the exponential redial policy: after a failed
// dial the client waits min, doubling per consecutive failure up to max
// (defaults 5ms, 1s). Calls inside the wait fail fast with the last dial
// error rather than stacking up behind a dead address. It is a test seam:
// reconnect tests shorten the backoff so they run fast.
func WithReconnectBackoff(min, max time.Duration) ClientOption {
	return func(c *Client) {
		if min > 0 {
			c.backoffMin = min
		}
		if max >= c.backoffMin {
			c.backoffMax = max
		}
	}
}

// WithPartitionCheck installs a link-partition predicate (fault injection,
// typically fault.Injector.PartitionCheck). While it reports true the
// client drops its live connections and fails calls with ErrPartitioned,
// so networked mode produces the same fault taxonomy as local mode: a
// replication target parks and replays, a push target retries and
// downgrades. It is a fault-injection test seam: only the partition tests
// cut a wire link.
func WithPartitionCheck(f func() bool) ClientOption {
	return func(c *Client) { c.partitioned = f }
}

// WithShaper delays each frame write by the returned duration for its
// encoded size — the hook for WAN-shaped latency (see ShaperFromLink).
func WithShaper(f func(bytes int) time.Duration) ClientOption {
	return func(c *Client) { c.shape = f }
}

// WithClientMetrics publishes the client's transport counters into m.
func WithClientMetrics(m *Metrics) ClientOption {
	return func(c *Client) { c.metrics = m }
}

// WithClientStateHook installs a connection-lifecycle callback.
func WithClientStateHook(h StateHook) ClientOption {
	return func(c *Client) { c.hook = h }
}

// WithDialer substitutes the dial function. It is a test seam: tests
// inject pipes and refusing dialers.
func WithDialer(d func(addr string, timeout time.Duration) (net.Conn, error)) ClientOption {
	return func(c *Client) { c.dialer = d }
}

// Dial returns a client for addr. Connections are established lazily on
// the first call, so construction never blocks and a dead peer costs
// nothing until used. name appears in diagnostics and state-hook events.
func Dial(name, addr string, opts ...ClientOption) *Client {
	c := &Client{
		name:        name,
		addr:        addr,
		callTimeout: 2 * time.Second,
		backoffMin:  5 * time.Millisecond,
		backoffMax:  time.Second,
		window:      make(chan struct{}, maxInFlight),
	}
	c.dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name returns the client's diagnostic name.
func (c *Client) Name() string { return c.name }

// Addr returns the dialed address.
func (c *Client) Addr() string { return c.addr }

// emit fires the state hook if installed.
func (c *Client) emit(event, detail string) {
	if c.hook != nil {
		c.hook(c.name, event, detail)
	}
}

// Call performs one RPC: frame the payload as type t, send it on a pooled
// connection, and wait for the correlated response. The context bounds the
// whole call; without a deadline the client's default call timeout
// applies. Transport failures return errors whose Transient method reports
// true; a TypeError response returns *RemoteError.
func (c *Client) Call(ctx context.Context, t Type, payload []byte) ([]byte, error) {
	if c.partitioned != nil && c.partitioned() {
		c.dropAll(true)
		if c.metrics != nil {
			c.metrics.CallErrors.Inc()
		}
		return nil, ErrPartitioned
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.callTimeout)
		defer cancel()
	}

	// Backpressure: take an in-flight slot or fail when the window stays
	// full for the whole deadline.
	select {
	case c.window <- struct{}{}:
	case <-ctx.Done():
		if c.metrics != nil {
			c.metrics.CallErrors.Inc()
		}
		return nil, fmt.Errorf("wire: %s in-flight window full: %w", c.name, ctx.Err())
	}
	if c.metrics != nil {
		c.metrics.InFlight.Add(1)
	}
	defer func() {
		if c.metrics != nil {
			c.metrics.InFlight.Add(-1)
		}
		<-c.window
	}()

	start := time.Now()
	out, err := c.call(ctx, t, payload)
	if err != nil {
		if c.metrics != nil {
			c.metrics.CallErrors.Inc()
		}
		return nil, err
	}
	c.metrics.observeRPC(time.Since(start).Seconds())
	return out, nil
}

// call runs the RPC against one connection.
func (c *Client) call(ctx context.Context, t Type, payload []byte) ([]byte, error) {
	cc, err := c.getConn()
	if err != nil {
		return nil, err
	}
	id := c.nextID.Add(1)
	ch := make(chan Frame, 1)
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return nil, &UnavailableError{Addr: c.addr, Err: errors.New("connection lost")}
	}
	cc.pending[id] = ch
	cc.mu.Unlock()
	defer func() {
		cc.mu.Lock()
		delete(cc.pending, id)
		cc.mu.Unlock()
	}()

	f := Frame{Type: t, ID: id, Payload: payload}
	if c.shape != nil {
		// Model the WAN: serialization plus propagation delay for a frame
		// of this size, charged before the bytes leave.
		if d := c.shape(f.wireSize()); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}

	cc.wmu.Lock()
	if dl, ok := ctx.Deadline(); ok {
		cc.conn.SetWriteDeadline(dl)
	}
	n, werr := WriteFrame(cc.conn, f)
	cc.wmu.Unlock()
	if werr != nil {
		c.dropConn(cc, false, werr.Error())
		return nil, &UnavailableError{Addr: c.addr, Err: werr}
	}
	if c.metrics != nil {
		c.metrics.FramesSent.Inc()
		c.metrics.BytesSent.Add(int64(n))
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, &UnavailableError{Addr: c.addr, Err: errors.New("connection lost awaiting response")}
		}
		if resp.Type == TypeError {
			msg, err := DecodeString(resp.Payload)
			if err != nil {
				msg = fmt.Sprintf("(undecodable error payload: %v)", err)
			}
			return nil, &RemoteError{Msg: msg}
		}
		return resp.Payload, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("wire: call %s to %s: %w", t, c.addr, ctx.Err())
	}
}

// getConn returns a live pooled connection, dialing a new one when the
// pool has room and the backoff gate allows.
func (c *Client) getConn() (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	// Prune connections whose read loop died.
	live := c.conns[:0]
	for _, cc := range c.conns {
		cc.mu.Lock()
		dead := cc.dead
		cc.mu.Unlock()
		if !dead {
			live = append(live, cc)
		}
	}
	c.conns = live

	var pick *clientConn
	if len(c.conns) > 0 {
		pick = c.conns[c.rr%len(c.conns)]
		c.rr++
	}
	doDial := false
	if len(c.conns)+c.dialing < poolSize && time.Now().After(c.notBefore) {
		c.dialing++
		doDial = true
	}
	lastErr := c.lastDialErr
	c.mu.Unlock()

	if !doDial {
		if pick != nil {
			return pick, nil
		}
		if lastErr == nil {
			lastErr = errors.New("reconnect backoff in progress")
		}
		return nil, &UnavailableError{Addr: c.addr, Err: lastErr}
	}

	conn, err := c.dialer(c.addr, dialTimeout)
	c.mu.Lock()
	c.dialing--
	if err != nil {
		c.lastDialErr = err
		if c.backoff < c.backoffMin {
			c.backoff = c.backoffMin
		} else {
			c.backoff *= 2
			if c.backoff > c.backoffMax {
				c.backoff = c.backoffMax
			}
		}
		c.notBefore = time.Now().Add(c.backoff)
		c.mu.Unlock()
		if pick != nil {
			return pick, nil // a live conn beats a failed dial
		}
		return nil, &UnavailableError{Addr: c.addr, Err: err}
	}
	c.backoff = 0
	c.lastDialErr = nil
	c.everConnected = true
	reconnect := c.droppedConns > 0
	if reconnect {
		c.droppedConns--
	}
	cc := &clientConn{conn: conn, pending: make(map[uint64]chan Frame)}
	c.conns = append(c.conns, cc)
	closed := c.closed
	c.mu.Unlock()
	if closed {
		conn.Close()
		return nil, ErrClientClosed
	}
	go c.readLoop(cc)
	if c.metrics != nil {
		c.metrics.Connects.Inc()
		if reconnect {
			c.metrics.Reconnects.Inc()
		}
	}
	if reconnect {
		c.emit("reconnect", c.addr)
	} else {
		c.emit("connect", c.addr)
	}
	return cc, nil
}

// readLoop demultiplexes responses to pending calls until the stream
// breaks, then fails everything outstanding on this connection.
func (c *Client) readLoop(cc *clientConn) {
	for {
		f, n, err := ReadFrame(cc.conn)
		if err != nil {
			c.dropConn(cc, false, err.Error())
			return
		}
		if c.metrics != nil {
			c.metrics.FramesReceived.Inc()
			c.metrics.BytesReceived.Add(int64(n))
		}
		cc.mu.Lock()
		ch, ok := cc.pending[f.ID]
		if ok {
			delete(cc.pending, f.ID)
		}
		cc.mu.Unlock()
		if ok {
			// The payload aliases ReadFrame's per-frame buffer, never
			// reused, so handing it across the channel is safe.
			ch <- f
		}
	}
}

// dropConn marks one connection dead, closes it, and fails its pending
// calls. partition tags the drop as injected-partition for accounting.
func (c *Client) dropConn(cc *clientConn, partition bool, detail string) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	pending := cc.pending
	cc.pending = make(map[uint64]chan Frame)
	cc.mu.Unlock()
	cc.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
	c.mu.Lock()
	c.droppedConns++
	c.mu.Unlock()
	if c.metrics != nil {
		c.metrics.Disconnects.Inc()
		if partition {
			c.metrics.PartitionDrops.Inc()
		}
	}
	if partition {
		c.emit("partition_drop", detail)
	} else {
		c.emit("disconnect", detail)
	}
}

// dropAll severs every live connection (partition enforcement or Close).
func (c *Client) dropAll(partition bool) {
	c.mu.Lock()
	conns := append([]*clientConn(nil), c.conns...)
	c.conns = c.conns[:0]
	c.mu.Unlock()
	for _, cc := range conns {
		c.dropConn(cc, partition, c.addr)
	}
}

// Connected reports whether the client currently holds at least one live
// connection.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.conns {
		cc.mu.Lock()
		dead := cc.dead
		cc.mu.Unlock()
		if !dead {
			return true
		}
	}
	return false
}

// Close severs every connection and fails future calls.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.dropAll(false)
}
