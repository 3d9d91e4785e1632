package wire

import (
	"context"
	"errors"
	"sync"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
)

// readyReporter / loadSignaler mirror the optional node interfaces the
// dispatcher probes through (dispatch.ReadyReporter and its unexported load
// signal); declaring them structurally here keeps wire usable with any node
// implementation.
type readyReporter interface{ Ready() bool }
type loadSignaler interface{ LoadSignal() float64 }

// RegisterNode exposes a serving node over s for the dispatcher's two
// remote needs: TypeServe forwards one request path and returns the
// outcome, and TypePing answers health probes with readiness plus the
// node's load signal — the wire form of the ISS advisor conversation.
func RegisterNode(s *Server, n dispatch.Node) {
	s.Handle(TypeServe, func(payload []byte) ([]byte, error) {
		path, err := DecodeString(payload)
		if err != nil {
			return nil, err
		}
		obj, outcome, serveErr := n.Serve(path)
		r := ServeResult{Outcome: outcome, Object: obj}
		if serveErr != nil {
			r.Err = serveErr.Error()
		}
		return EncodeServeResult(nil, r), nil
	})
	s.Handle(TypePing, func(payload []byte) ([]byte, error) {
		p := Pong{Ready: true}
		if rr, ok := n.(readyReporter); ok {
			p.Ready = rr.Ready()
		}
		if ls, ok := n.(loadSignaler); ok {
			p.Load = ls.LoadSignal()
		}
		return EncodePong(nil, p), nil
	})
}

// RemoteNode fronts a node in another process as a dispatch.Node: Serve
// forwards the request over the wire, Ready and LoadSignal ride the
// TypePing probe. A dispatcher pools RemoteNodes exactly as it pools local
// servers — probe failures pull the node from the distribution list, so a
// dead process degrades into failover, not errors.
type RemoteNode struct {
	name string
	c    *Client

	// Probes are cached briefly: the dispatcher reads LoadSignal on every
	// selection, and a wire round trip per selection would put the probe
	// plane on the serve path's latency budget; see probeTTL.
	mu       sync.Mutex
	lastPong Pong
	lastAt   time.Time
	lastOK   bool
}

// probeTTL is how long one ping answer is reused for Ready and LoadSignal
// before a fresh probe is sent.
const probeTTL = 25 * time.Millisecond

// NewRemoteNode wraps c as a dispatchable node named name.
func NewRemoteNode(name string, c *Client) *RemoteNode {
	return &RemoteNode{name: name, c: c}
}

// Name implements dispatch.Node.
func (n *RemoteNode) Name() string { return n.name }

// Serve implements dispatch.Node by forwarding the path over the wire.
func (n *RemoteNode) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	resp, err := n.c.Call(context.Background(), TypeServe, EncodeString(nil, path))
	if err != nil {
		return nil, httpserver.OutcomeError, err
	}
	r, err := DecodeServeResult(resp)
	if err != nil {
		return nil, httpserver.OutcomeError, err
	}
	if r.Err != "" {
		err = errors.New(r.Err)
		if r.Outcome == httpserver.OutcomeError {
			// The node answered: its error is a failed render.
			err = httpserver.RenderError{Err: err}
		}
		return r.Object, r.Outcome, err
	}
	return r.Object, r.Outcome, nil
}

// probe returns a fresh-enough pong, sending a TypePing when the cache
// expired. ok is false when the node is unreachable.
func (n *RemoteNode) probe() (Pong, bool) {
	n.mu.Lock()
	if time.Since(n.lastAt) < probeTTL {
		p, ok := n.lastPong, n.lastOK
		n.mu.Unlock()
		return p, ok
	}
	n.mu.Unlock()

	p, ok := Pong{}, false
	if resp, err := n.c.Call(context.Background(), TypePing, nil); err == nil {
		if pong, derr := DecodePong(resp); derr == nil {
			p, ok = pong, true
		}
	}
	n.mu.Lock()
	n.lastPong, n.lastOK, n.lastAt = p, ok, time.Now()
	n.mu.Unlock()
	return p, ok
}

// Ready implements dispatch.ReadyReporter: an unreachable node is not
// ready — exactly the signal that makes the dispatcher fail over.
func (n *RemoteNode) Ready() bool {
	p, ok := n.probe()
	return ok && p.Ready
}

// LoadSignal reports the remote node's overload signal (0 when the node is
// unreachable; Ready gates admission, not load).
func (n *RemoteNode) LoadSignal() float64 {
	p, _ := n.probe()
	return p.Load
}
