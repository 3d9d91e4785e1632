package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
	"dupserve/internal/odg"
	"dupserve/internal/site"
	"dupserve/internal/trigger"
	"dupserve/internal/wire"
)

const (
	servingNodes = 4
	batchWindow  = 20 * time.Millisecond
)

// plant is one assembled system under test: master database, DUP engine,
// trigger monitor, four serving nodes behind a dispatcher, and the bench's
// HTTP front end on a loopback port. It is put together from the leaf
// constructors the way cmd/olympicsd does it, without that command's
// observability wiring, so that only the serve and propagation paths are
// measured and a change to how plants are assembled elsewhere does not
// touch the benchmark.
type plant struct {
	master *db.DB
	st     *site.Site
	graph  *odg.Graph
	mon    *trigger.Monitor
	nd     *dispatch.Dispatcher
	tr     *tracer

	caches  []*cache.Cache
	servers []*httpserver.Server
	// nodeProbes stamp when a batch reached the serving caches: one probe
	// around the group in process, one per node over the wire.
	nodeProbes []*probe
	// pushProbe is the master-side store seam (cache.Group in process,
	// wire.GroupClient over the wire, there only when traced).
	pushProbe    *probe
	prerenderLSN int64

	wm          *wire.Metrics // nil in process
	serves      wireCount     // serve requests sent over the wire, traced runs only
	downgrades  atomic.Int64
	replicators []*db.Replicator

	addr    string
	nextReq atomic.Int64
	closers []func()
}

func (p *plant) close() {
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
}

// buildPlant assembles, prerenders and starts a plant. tr is nil for an
// untraced run.
func buildPlant(spec site.Spec, overWire bool, tr *tracer) (*plant, error) {
	p := &plant{tr: tr, master: db.New("master")}
	var err error
	if overWire {
		err = p.assembleWire(spec)
	} else {
		err = p.assembleLocal(spec)
	}
	if err != nil {
		p.close()
		return nil, err
	}
	if err := p.mon.Start(context.Background()); err != nil {
		p.close()
		return nil, err
	}
	p.closers = append(p.closers, func() { p.mon.Shutdown(context.Background()) })

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	p.addr = l.Addr().String()
	front := &http.Server{Handler: p}
	go front.Serve(l)
	p.closers = append(p.closers, func() { front.Close() })
	return p, nil
}

func (p *plant) generator() core.Generator {
	return func(key cache.Key, version int64) (*cache.Object, error) {
		return p.st.Engine.Generate(key, version)
	}
}

func (p *plant) newMonitor(engine *core.Engine) {
	p.prerenderLSN = p.master.LSN()
	p.mon = trigger.New(trigger.Config{
		Name:        "bench",
		DB:          p.master,
		Engine:      engine,
		StartLSN:    p.prerenderLSN,
		BatchWindow: batchWindow,
	}, trigger.WithIndexer(p.st.Indexer))
}

func (p *plant) assembleLocal(spec site.Spec) error {
	group := cache.NewGroup()
	p.pushProbe = newProbe(group, layerPush, p.tr)
	p.nodeProbes = []*probe{p.pushProbe}
	gen := p.generator()
	p.graph = odg.New()
	engine := core.NewEngine(p.graph, p.pushProbe, core.WithGenerator(tracedGen(gen, p.tr)))
	var err error
	if p.st, err = site.Build(spec, p.master, engine); err != nil {
		return err
	}
	engine.SetAssembler(p.st.Engine)

	var pool []dispatch.Node
	for i := 0; i < servingNodes; i++ {
		name := fmt.Sprintf("up%d", i)
		c := cache.New(name)
		group.Add(c)
		srv := httpserver.New(name, c, gen, p.master.LSN)
		for path, body := range p.st.Statics() {
			srv.SetStatic(path, body, "text/html; charset=utf-8")
		}
		p.caches = append(p.caches, c)
		p.servers = append(p.servers, srv)
		if p.tr != nil {
			pool = append(pool, &tracedNode{Node: srv, layer: layerNode, tr: p.tr})
		} else {
			pool = append(pool, srv)
		}
	}
	p.nd = dispatch.New(dispatch.Config{Name: "nd", Nodes: pool})
	p.newMonitor(engine)
	return p.st.PrerenderAll(p.prerenderLSN, func(o *cache.Object) { group.BroadcastPut(o) })
}

// assembleWire splits the plant over internal/wire on loopback TCP inside
// this process: per node a wire.Server with replica, store and node
// registered; on the master side one pooled client per node carrying log
// shipping, pushes and serves.
func (p *plant) assembleWire(spec site.Spec) error {
	p.wm = wire.NewMetrics()
	var stores []*wire.StoreClient
	var replicas []*wire.ReplicaClient
	var pool []dispatch.Node
	for i := 0; i < servingNodes; i++ {
		name := fmt.Sprintf("up%d", i)
		replica := db.New(name + "-replica")
		nodeCache := cache.New(name)
		var nst *site.Site
		ngen := func(key cache.Key, version int64) (*cache.Object, error) {
			return nst.Engine.Generate(key, version)
		}
		nengine := core.NewEngine(odg.New(), nodeCache, core.WithGenerator(ngen))
		var err error
		if nst, err = site.BuildReplica(spec, replica, nengine); err != nil {
			return err
		}
		srv := httpserver.New(name, nodeCache, ngen, replica.LSN)
		for path, body := range nst.Statics() {
			srv.SetStatic(path, body, "text/html; charset=utf-8")
		}
		p.caches = append(p.caches, nodeCache)
		p.servers = append(p.servers, srv)
		np := newProbe(nodeCache, layerApply, p.tr)
		p.nodeProbes = append(p.nodeProbes, np)

		ws := wire.NewServer(name)
		wire.RegisterReplica(ws, replica)
		wire.RegisterStore(ws, np)
		cur := new(atomic.Int64)
		if p.tr != nil {
			wire.RegisterNode(ws, &nodeSide{Node: srv, tr: p.tr, cur: cur})
		} else {
			wire.RegisterNode(ws, srv)
		}
		bound, err := ws.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		p.closers = append(p.closers, ws.Close)

		c := wire.Dial(name, bound.String(), wire.WithClientMetrics(p.wm))
		p.closers = append(p.closers, c.Close)
		stores = append(stores, wire.NewStoreClient(name, c))
		replicas = append(replicas, wire.NewReplicaClient(c))
		rn := wire.NewRemoteNode(name, c)
		if p.tr != nil {
			pool = append(pool, &tracedNode{Node: rn, layer: layerRemote, tr: p.tr, cur: cur, sent: &p.serves})
		} else {
			pool = append(pool, rn)
		}
	}
	group := wire.NewGroupClient(stores,
		wire.WithGroupDowngradeHook(func(string, cache.Key) { p.downgrades.Add(1) }))
	p.closers = append(p.closers, group.Close)
	var store core.Store = group
	if p.tr != nil {
		p.pushProbe = newProbe(group, layerPush, p.tr)
		store = p.pushProbe
	}
	p.graph = odg.New()
	engine := core.NewEngine(p.graph, store, core.WithGenerator(tracedGen(p.generator(), p.tr)))
	var err error
	if p.st, err = site.Build(spec, p.master, engine); err != nil {
		return err
	}
	engine.SetAssembler(p.st.Engine)

	// Ship the seed data and wait for catch-up before any page is pushed, so
	// a node-side miss would render from the same rows.
	for _, rc := range replicas {
		var target db.Target = rc
		if p.tr != nil {
			target = tracedTarget{Target: rc, tr: p.tr}
		}
		r := db.StartReplicationTo(p.master, target)
		p.replicators = append(p.replicators, r)
		p.closers = append(p.closers, r.Stop)
	}
	if err := p.waitReplicas(); err != nil {
		return err
	}
	p.nd = dispatch.New(dispatch.Config{Name: "nd", Nodes: pool})
	p.newMonitor(engine)
	return p.st.PrerenderAll(p.prerenderLSN, func(o *cache.Object) { group.ApplyPut(o) })
}

func (p *plant) waitReplicas() error {
	for i, r := range p.replicators {
		if !r.WaitCaughtUp(30 * time.Second) {
			return fmt.Errorf("node %d replica never caught up to lsn %d", i, p.master.LSN())
		}
	}
	return nil
}

// ServeHTTP is the bench's own front end: the dispatcher's answer written as
// an HTTP/1.1 response with the headers cmd/olympicsd sets, plus an explicit
// Content-Length so that the load generator never has to parse chunks.
func (p *plant) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var (
		obj     *cache.Object
		outcome httpserver.Outcome
		err     error
	)
	if p.tr == nil {
		obj, outcome, err = p.nd.Serve(r.URL.Path)
	} else {
		id := p.nextReq.Add(1)
		ctx := context.WithValue(context.Background(), reqIDKey{}, id)
		start := now()
		obj, outcome, err = p.nd.ServeCtx(ctx, r.URL.Path)
		p.tr.add(layerDispatch, id, start, now())
		w.Header().Set("X-Span", strconv.FormatInt(id, 10))
	}
	switch outcome {
	case httpserver.OutcomeNotFound:
		http.NotFound(w, r)
		return
	case httpserver.OutcomeShed:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	case httpserver.OutcomeError:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", obj.ContentType)
	h.Set("Content-Length", strconv.Itoa(len(obj.Value)))
	h.Set("X-Cache", outcome.String())
	h.Set("X-Version", strconv.FormatInt(obj.Version, 10))
	w.Write(obj.Value)
}
