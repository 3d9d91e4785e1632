package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
	"dupserve/internal/wire"
)

// epoch anchors every timestamp the bench takes; nanoseconds since it fit an
// int64 and read the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// layer names a seam the bench decorates. The serve seams carry a request
// id, the propagation seams the LSN (commit, replica) or the batch version
// (gen, push, apply) the work belongs to.
type layer uint8

const (
	layerClient   layer = iota // client socket: request written -> body read
	layerDispatch              // Dispatcher.ServeCtx, called from the bench's handler
	layerNode                  // httpserver.Server.Serve, node side
	layerRemote                // wire.RemoteNode.Serve, master side (wire plant)
	layerCommit                // site.Record*/PublishNews
	layerGen                   // core.Generator call (fragment render or page assembly)
	layerPush                  // master-side Store.ApplyPut: cache.Group or wire.GroupClient
	layerApply                 // node-side Store.ApplyPut behind wire.RegisterStore
	layerReplica               // db.Target.Apply: log shipping to one node replica
	numLayers
)

var layerNames = [numLayers]string{
	"client", "dispatch", "httpserver", "wire.serve_rpc", "db.commit",
	"fragment.gen", "store.push", "wire.apply", "wire.replica",
}

// layerParent is the span that causes each span; -1 marks a root.
var layerParent = [numLayers]int{
	-1, int(layerClient), int(layerDispatch), int(layerDispatch), -1,
	int(layerCommit), int(layerCommit), int(layerPush), int(layerCommit),
}

type span struct {
	layer      layer
	id         int64
	start, end int64
}

// tracer keeps the spans of one traced run in memory. A nil tracer is the
// untraced run: no decorator is installed at all, so the end-to-end numbers
// pay nothing for the per-layer ones.
type tracer struct {
	on atomic.Bool // spans are kept only inside the measured window
	mu sync.Mutex
	// Spans are kept in blocks of spanBlock: one growing slice would be
	// copied, under the lock, every time it doubled, and at a few million
	// spans that copy stalls every goroutine of the plant for tens of
	// milliseconds.
	blocks [][]span
	n      int
}

const spanBlock = 1 << 16

func (t *tracer) add(l layer, id, start, end int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if t.n%spanBlock == 0 {
		t.blocks = append(t.blocks, make([]span, 0, spanBlock))
	}
	last := &t.blocks[len(t.blocks)-1]
	*last = append(*last, span{l, id, start, end})
	t.n++
	t.mu.Unlock()
}

// each calls f with every span recorded, in the order they were added.
func (t *tracer) each(f func(span)) {
	for _, b := range t.blocks {
		for _, s := range b {
			f(s)
		}
	}
}

// write stores at most max spans as JSON, thinning by id so that the spans
// of a kept request or batch stay together.
func (t *tracer) write(path string, max int) error {
	stride := int64(t.n/max + 1)
	type row struct {
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		ID     int64  `json:"id"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	rows := make([]row, 0, max)
	t.each(func(s span) {
		if s.id%stride != 0 {
			return
		}
		r := row{Name: layerNames[s.layer], ID: s.id, Start: s.start, End: s.end}
		if p := layerParent[s.layer]; p >= 0 {
			r.Parent = layerNames[p]
		}
		rows = append(rows, r)
	})
	buf, err := json.Marshal(map[string]any{"recorded": t.n, "id_stride": stride, "spans": rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// batchRec is what a probe remembers of one propagation batch: a constant
// amount per version however many pages the batch installs.
type batchRec struct {
	version     int64
	first, last int64 // first ApplyPut entered, last ApplyPut returned
	puts        int
}

// probe is the always-on freshness probe: a core.Store decorator stamping,
// per batch version, when the first push entered and the last one returned.
// In the in-process plant one probe wraps the cache.Group (whose ApplyPut
// returns once the last node's cache holds the page); in the wire plant one
// wraps each node's cache behind wire.RegisterStore, so wire transit is
// inside the freshness figure. With a tracer it also records a span per push.
type probe struct {
	inner core.Store
	layer layer
	tr    *tracer

	mu   sync.Mutex
	recs []batchRec
}

func newProbe(inner core.Store, l layer, tr *tracer) *probe {
	return &probe{inner: inner, layer: l, tr: tr}
}

func (p *probe) ApplyPut(obj *cache.Object) {
	v := obj.Version
	start := now()
	p.inner.ApplyPut(obj)
	end := now()
	p.mu.Lock()
	// Batches arrive in version order, so the match is the last record but
	// for pushes of one batch overtaking another on separate connections.
	i := len(p.recs) - 1
	for i >= 0 && p.recs[i].version != v {
		i--
	}
	if i < 0 {
		p.recs = append(p.recs, batchRec{version: v, first: start, last: end, puts: 1})
	} else {
		r := &p.recs[i]
		r.puts++
		if end > r.last {
			r.last = end
		}
	}
	p.mu.Unlock()
	if p.tr != nil {
		p.tr.add(p.layer, v, start, end)
	}
}

func (p *probe) ApplyInvalidate(key cache.Key) int { return p.inner.ApplyInvalidate(key) }
func (p *probe) ApplyInvalidatePrefix(prefix string) int {
	return p.inner.ApplyInvalidatePrefix(prefix)
}

// batches returns a copy of the records, sorted by version.
func (p *probe) batches() []batchRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]batchRec(nil), p.recs...)
	sort.Slice(out, func(i, j int) bool { return out[i].version < out[j].version })
	return out
}

// tracedGen times every generator call the DUP engine makes.
func tracedGen(gen core.Generator, tr *tracer) core.Generator {
	if tr == nil {
		return gen
	}
	return func(key cache.Key, version int64) (*cache.Object, error) {
		start := now()
		obj, err := gen(key, version)
		tr.add(layerGen, version, start, now())
		return obj, err
	}
}

type reqIDKey struct{}

// tracedNode is the master-side decorator around a pool member: the node's
// own server in the in-process plant, the wire.RemoteNode in the wire plant.
// The request id rides the context the bench's handler gives the dispatcher.
// Over the wire the context stops at the socket, so the decorator leaves the
// id in cur for the node-side decorator; that is exact because the wire
// workload reads through a single connection, one request at a time.
type tracedNode struct {
	dispatch.Node
	layer layer
	tr    *tracer
	cur   *atomic.Int64
	// sent, over the wire, counts the request frames and their bytes, so
	// that serves can be told from pushes in the clients' shared counters.
	sent *wireCount
}

type wireCount struct{ frames, bytes atomic.Int64 }

func (n *tracedNode) ServeCtx(ctx context.Context, path string) (*cache.Object, httpserver.Outcome, error) {
	id, _ := ctx.Value(reqIDKey{}).(int64)
	if n.cur != nil {
		n.cur.Store(id)
		request := wire.Frame{Type: wire.TypeServe, Payload: wire.EncodeString(nil, path)}
		n.sent.frames.Add(1)
		n.sent.bytes.Add(int64(len(wire.AppendFrame(nil, request))))
	}
	start := now()
	obj, outcome, err := n.Node.Serve(path)
	n.tr.add(n.layer, id, start, now())
	return obj, outcome, err
}

// nodeSide is the node-side decorator registered with wire.RegisterNode.
type nodeSide struct {
	dispatch.Node
	tr  *tracer
	cur *atomic.Int64
}

func (n *nodeSide) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	start := now()
	obj, outcome, err := n.Node.Serve(path)
	n.tr.add(layerNode, n.cur.Load(), start, now())
	return obj, outcome, err
}

// tracedTarget times log shipping to one node replica from the commit
// timestamp the master stamped on the transaction.
type tracedTarget struct {
	db.Target
	tr *tracer
}

func (t tracedTarget) Apply(tx db.Transaction) error {
	err := t.Target.Apply(tx)
	t.tr.add(layerReplica, tx.LSN, int64(tx.Commit.Sub(epoch)), now())
	return err
}
