// Command olympicsd serves a live mini Olympic Games web site over HTTP,
// exercising the full production pipeline of the paper: an in-memory master
// database, a fragment-composed dynamic site, a DUP engine with
// update-in-place propagation, an asynchronous trigger monitor consuming
// the database's change feed, and a pool of serving nodes behind a Network
// Dispatcher.
//
// A background "games" goroutine records results and publishes news on an
// accelerated schedule, so pages visibly change while you browse:
//
//	olympicsd -addr :8098 -tick 2s
//	curl -i localhost:8098/en/home/day01     # X-Cache: hit on every request
//	curl    localhost:8098/en/medals
//	curl    localhost:8098/stats
//	curl    localhost:8098/sitemap           # all page paths (for loadgen)
//	curl    localhost:8098/debug/audit       # consistency audit sweep (JSON)
//	curl    localhost:8098/debug/serve       # serve-path span statistics
//	curl    localhost:8098/debug/journal     # structured event journal
//	curl    localhost:8098/debug/flight      # latest flight-recorder dump
//
// Every /debug endpoint is read-only (non-GET gets 405) and answers a JSON
// 503 while the site is still prerendering, so probes always parse.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dupserve/internal/audit"
	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/dispatch"
	"dupserve/internal/fragment"
	"dupserve/internal/httpserver"
	"dupserve/internal/netsim"
	"dupserve/internal/obs"
	"dupserve/internal/odg"
	"dupserve/internal/site"
	"dupserve/internal/stats"
	"dupserve/internal/trace"
	"dupserve/internal/trigger"
	"dupserve/internal/weblog"
	"dupserve/internal/wire"
)

// syncBuffer is a mutex-guarded byte buffer the access log writes to and
// /logreport reads from.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) reader() io.Reader {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.NewReader(append([]byte(nil), b.buf.Bytes()...))
}

// probeInterval is how often each role's dispatcher sweeps its pool with
// advisor probes. One failed serve evicts a node at once; the sweep is what
// readmits it once its probe is healthy again, so a node restarting under
// load rejoins within one interval.
const probeInterval = 500 * time.Millisecond

// writeJSON is the one place debug responses pick up their Content-Type and
// encoder settings.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("debug encode: %v", err)
	}
}

// guard makes a debug handler read-only (405 on non-GET, with Allow) and
// answers a JSON 503 with Retry-After until ready reports that startup
// finished. Every role's /debug handlers go through it.
func guard(ready func() bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if !ready() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"error": "starting: prerendering site"})
			return
		}
		h(w, r)
	}
}

// serving is the readiness of the node and master roles: both finish
// startup before their HTTP listener comes up.
func serving() bool { return true }

// metricsHandler serves reg in the Prometheus text exposition format.
func metricsHandler(reg *stats.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteText(w); err != nil {
			log.Printf("metrics exposition: %v", err)
		}
	}
}

// flags carries every command-line option across the role entry points.
type flags struct {
	addr      string
	tick      time.Duration
	nodes     int
	seed      int64
	paper     bool
	accessLog string
	slo       time.Duration
	traceRing int
	name      string
	wireAddr  string
	peers     string
	wan       string
	days      int
}

func main() {
	role := flag.String("role", "all",
		"process role: all (single process), node (serving node), master|complex (propagation plane), smoke (self-exec loopback deployment)")
	var f flags
	flag.StringVar(&f.addr, "addr", ":8098", "HTTP listen address (empty disables HTTP in node role)")
	flag.DurationVar(&f.tick, "tick", 2*time.Second, "interval between live updates")
	flag.IntVar(&f.nodes, "nodes", 4, "serving nodes behind the dispatcher (all and smoke roles)")
	flag.Int64Var(&f.seed, "seed", 1998, "random seed for the games feed")
	flag.BoolVar(&f.paper, "paper", false, "build the full paper-scale site (~17.5k pages)")
	flag.StringVar(&f.accessLog, "accesslog", "", "also write the access log to this file (CLF)")
	flag.DurationVar(&f.slo, "slo", 60*time.Second, "freshness SLO (the paper's sixty-second guarantee)")
	flag.IntVar(&f.traceRing, "traces", 256, "recent propagation traces retained for /debug/traces")
	flag.StringVar(&f.name, "name", "node", "this process's name (node role)")
	flag.StringVar(&f.wireAddr, "wire-addr", "127.0.0.1:0", "wire transport listen address (node role)")
	flag.StringVar(&f.peers, "peers", "", "comma-separated node wire addresses (master role)")
	flag.StringVar(&f.wan, "wan", "", `shape the wire like a link: "" none, "lan", "modem" (master role)`)
	flag.IntVar(&f.days, "days", 0, "override the site's day count (0 keeps the spec default)")
	flag.Parse()

	switch *role {
	case "all":
		runAll(f)
	case "node":
		runNode(f)
	case "master", "complex":
		runMaster(f)
	case "smoke":
		runSmoke(f)
	default:
		log.Fatalf("unknown -role %q (want all, node, master, or smoke)", *role)
	}
}

// multiSpec is the site specification shared by every process of one
// deployment: master and nodes must build identical renderer sets or the
// nodes' miss-path renders would diverge from the pushed pages.
func multiSpec(f flags) site.Spec {
	if f.paper {
		return site.PaperSpec()
	}
	spec := site.DefaultSpec()
	spec.Days = 16
	spec.Languages = []string{"en", "ja"}
	if f.days > 0 {
		spec.Days = f.days
	}
	return spec
}

func runAll(f flags) {
	addr := &f.addr
	tick := &f.tick
	nodes := &f.nodes
	seed := &f.seed
	accessLog := &f.accessLog
	slo := &f.slo
	traceRing := &f.traceRing

	// Observability substrate: one registry every subsystem publishes
	// into, and a tracer following each transaction commit -> push.
	reg := stats.NewRegistry()
	tracer := trace.New(trace.WithSLO(*slo), trace.WithRingSize(*traceRing))
	tracer.RegisterMetrics(reg)

	// Serve-path observability: a span collector the dispatcher mints
	// request spans into, a structured journal the tracer and auditor
	// publish anomalies to, and the flight recorder behind /debug/flight.
	suite := obs.NewSuite(obs.WithName("nagano"),
		obs.WithTracer(tracer), obs.WithMetrics(reg))
	suite.RegisterMetrics(reg, nil)
	tracer.SetOnViolation(func(tr trace.Trace) {
		suite.Journal.Event(obs.LevelWarn, "trace", "slo_violation",
			"propagation exceeded the freshness SLO",
			"lsn", strconv.FormatInt(tr.LSN, 10))
	})

	master := db.New("nagano-master")
	probe := obs.NewReadProbe()
	master.SetReadHook(probe.Hook)
	graph := odg.New()
	group := cache.NewGroup()
	master.RegisterMetrics(reg, stats.Labels{"db": "nagano-master"})

	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	engine := core.NewEngine(graph, group, core.WithGenerator(gen))

	spec := multiSpec(f)
	var err error
	st, err = site.Build(spec, master, engine)
	if err != nil {
		log.Fatal(err)
	}
	// Incremental propagation: batches render each changed fragment once
	// and rebuild containing pages by splicing cached fragment bytes.
	engine.SetAssembler(st.Engine)

	// Consistency auditor: taps every served response and, on demand
	// (/debug/audit), shadow-renders the site against a snapshot of the
	// master to verify coherence and ODG completeness.
	aud := audit.New(audit.Config{
		Name:    "nagano",
		Replica: master,
		Build: func(sdb *db.DB, sreg fragment.Registrar) (*fragment.Engine, []string, error) {
			s, err := site.BuildReplica(spec, sdb, sreg)
			if err != nil {
				return nil, nil, err
			}
			return s.Engine, s.Pages(), nil
		},
		Indexer:     func(ch db.Change) []odg.NodeID { return st.Indexer(ch) },
		Tracer:      tracer,
		StaleBudget: *slo,
		SLO:         *slo,
		OnIncoherent: func(page string) {
			suite.Journal.Event(obs.LevelError, "audit", "incoherent",
				"served page diverges from shadow render at the same LSN",
				"page", page)
		},
	})
	aud.RegisterMetrics(reg, nil)

	// Serving pool: one cache + server per node, pooled behind a
	// dispatcher (the per-complex layout of figure 19).
	var pool []dispatch.Node
	statics := st.Statics()
	for i := 0; i < *nodes; i++ {
		name := fmt.Sprintf("up%d", i)
		c := cache.New(name)
		group.Add(c)
		srv := httpserver.New(name, c, gen, master.LSN,
			httpserver.WithResponseTap(aud.Observe),
			httpserver.WithReadProbe(probe))
		for p, body := range statics {
			srv.SetStatic(p, body, "text/html; charset=utf-8")
		}
		srv.RegisterMetrics(reg, nil)
		pool = append(pool, srv)
	}
	nd := dispatch.New(dispatch.Config{Name: "nd", Nodes: pool, ProbeInterval: probeInterval},
		dispatch.WithObserver(suite.Collector))
	if err := nd.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	engine.RegisterMetrics(reg, nil)
	group.RegisterMetrics(reg, nil)
	nd.RegisterMetrics(reg, nil)

	// Trigger monitor: the asynchronous component watching the database.
	// Constructed here (the handlers below reference it) but started only
	// after the caches are primed, with the checkpoint pinned at the
	// prerender LSN so nothing is replayed twice.
	mon := trigger.New(trigger.Config{
		Name:     "nagano",
		DB:       master,
		Engine:   engine,
		StartLSN: master.LSN(),
	},
		trigger.WithIndexer(st.Indexer),
		trigger.WithTracer(tracer))
	mon.RegisterMetrics(reg, nil)

	// Startup runs in the background so the listener comes up immediately
	// and the /debug surface can answer "starting" instead of hanging.
	// Once every cache is primed and the monitor is consuming the change
	// feed, ready flips and the games feed begins.
	var ready atomic.Bool
	go func() {
		log.Printf("prerendering %d pages into %d node caches...", len(st.Pages()), *nodes)
		if err := st.PrerenderAll(master.LSN(), func(o *cache.Object) { group.BroadcastPut(o) }); err != nil {
			log.Fatal(err)
		}
		if err := mon.Start(context.Background()); err != nil {
			log.Fatal(err)
		}
		ready.Store(true)
		log.Printf("ready: %d pages primed", len(st.Pages()))
		runGames(st, *tick, *seed)
	}()

	// Access log: in-memory for the /logreport endpoint, optionally teed
	// to a file — the log-driven methodology behind the 1998 redesign.
	var logBuf syncBuffer
	var logSink io.Writer = &logBuf
	if *accessLog != "" {
		f, err := os.Create(*accessLog)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		logSink = io.MultiWriter(&logBuf, f)
	}
	access := weblog.NewWriter(logSink)

	debug := func(h http.HandlerFunc) http.HandlerFunc { return guard(ready.Load, h) }
	queryN := func(r *http.Request, def int) int {
		if v := r.URL.Query().Get("n"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil {
				return parsed
			}
		}
		return def
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		client := r.RemoteAddr
		if i := strings.LastIndexByte(client, ':'); i > 0 {
			client = client[:i]
		}
		obj, outcome, err := nd.Serve(r.URL.Path)
		switch outcome {
		case httpserver.OutcomeNotFound:
			access.Log(client, r.URL.Path, http.StatusNotFound, 0)
			http.NotFound(w, r)
			return
		case httpserver.OutcomeShed:
			access.Log(client, r.URL.Path, http.StatusServiceUnavailable, 0)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		case httpserver.OutcomeError:
			access.Log(client, r.URL.Path, http.StatusInternalServerError, 0)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		access.Log(client, r.URL.Path, http.StatusOK, len(obj.Value))
		w.Header().Set("Content-Type", obj.ContentType)
		w.Header().Set("X-Cache", outcome.String())
		w.Header().Set("X-Version", fmt.Sprint(obj.Version))
		w.Write(obj.Value)
	})
	mux.HandleFunc("/logreport", func(w http.ResponseWriter, r *http.Request) {
		access.Flush()
		rep, err := weblog.Analyze(logBuf.reader(), 10)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("/sitemap", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, strings.Join(st.Pages(), "\n"))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		agg := group.AggregateStats()
		writeJSON(w, http.StatusOK, map[string]any{
			"cache":      agg,
			"hitRate":    agg.HitRate(),
			"engine":     engine.Stats(),
			"trigger":    mon.Stats(),
			"dispatcher": nd.Stats(),
			"serve":      suite.Collector.Snapshot(),
			"freshness":  tracer.Snapshot(),
			"dbLSN":      master.LSN(),
			"pages":      len(st.Pages()),
			"currentDay": st.CurrentDay(),
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})

	// Observability surface: Prometheus text, structured JSON, recent
	// propagation traces, serve spans, the event journal, flight-recorder
	// dumps, and pprof. Everything under /debug goes through guard.
	mux.HandleFunc("/debug/metrics", debug(metricsHandler(reg)))
	mux.HandleFunc("/debug/metrics.json", debug(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"metrics":     reg.Snapshot(),
			"propagation": tracer.Snapshot(),
		})
	}))
	mux.HandleFunc("/debug/traces", debug(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"summary": tracer.Snapshot(),
			"traces":  tracer.Recent(queryN(r, 50)),
		})
	}))
	mux.HandleFunc("/debug/serve", debug(func(w http.ResponseWriter, r *http.Request) {
		renders, reuses := st.Engine.Accounting()
		es := engine.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"summary": suite.Collector.Snapshot(),
			"spans":   suite.Collector.Recent(queryN(r, 50)),
			// Assembly accounting correlates serve-path spans with the
			// propagation batches that refreshed what was served: renders
			// are fragments rebuilt by DUP batches, reuses are cached
			// fragment bytes spliced into containing pages.
			"assembly": map[string]any{
				"fragment_renders":       renders,
				"fragment_reuses":        reuses,
				"batch_fragment_renders": es.FragmentRenders,
				"batch_fragment_reuses":  es.FragmentReuses,
			},
		})
	}))
	mux.HandleFunc("/debug/journal", debug(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"armed":    suite.Journal.Armed(),
			"appended": suite.Journal.Appended(),
			"events":   suite.Journal.Recent(queryN(r, 50)),
		})
	}))
	mux.HandleFunc("/debug/flight", debug(func(w http.ResponseWriter, r *http.Request) {
		rec := suite.Recorder
		if r.URL.Query().Get("capture") == "1" {
			writeJSON(w, http.StatusOK, rec.Capture("manual capture via /debug/flight"))
			return
		}
		dump, ok := rec.Latest()
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]any{
				"error": "no dumps captured; trip a trigger or pass ?capture=1",
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"captured": rec.Captured(),
			"kinds":    rec.Kinds(),
			"latest":   dump,
		})
	}))
	mux.HandleFunc("/debug/audit", debug(func(w http.ResponseWriter, r *http.Request) {
		rep, err := aud.Sweep()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := rep.WriteJSON(w); err != nil {
			log.Printf("audit report: %v", err)
		}
	}))
	mux.HandleFunc("/debug/pprof/", debug(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", debug(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", debug(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", debug(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", debug(pprof.Trace))

	log.Printf("olympicsd listening on %s (%d pages, %d nodes)", *addr, len(st.Pages()), *nodes)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

// wireShaper maps the -wan flag to a frame shaper (nil = unshaped).
func wireShaper(wan string) func(int) time.Duration {
	switch wan {
	case "":
		return nil
	case "lan":
		return wire.ShaperFromLink(netsim.LAN())
	case "modem":
		return wire.ShaperFromLink(netsim.Modem288())
	default:
		log.Fatalf("unknown -wan %q (want lan or modem)", wan)
		return nil
	}
}

// runNode is one serving-node process: a database replica fed over the
// wire by the master's log shipping, a cache the master pushes rendered
// pages into, and an HTTP serving layer the master's dispatcher forwards
// requests to — all three registered on one wire listener. The bound
// address is printed as "wire listening on <addr>" for the smoke role's
// parent to parse.
func runNode(f flags) {
	reg := stats.NewRegistry()
	replica := db.New(f.name + "-replica")
	replica.RegisterMetrics(reg, stats.Labels{"db": f.name + "-replica"})
	nodeCache := cache.New(f.name)

	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	// The node's engine regenerates misses against the local replica; its
	// store is the node's own cache (a one-member complex).
	engine := core.NewEngine(odg.New(), nodeCache, core.WithGenerator(gen))
	var err error
	st, err = site.BuildReplica(multiSpec(f), replica, engine)
	if err != nil {
		log.Fatal(err)
	}
	srv := httpserver.New(f.name, nodeCache, gen, replica.LSN)
	for p, body := range st.Statics() {
		srv.SetStatic(p, body, "text/html; charset=utf-8")
	}
	srv.RegisterMetrics(reg, nil)

	wm := wire.NewMetrics()
	wm.RegisterMetrics(reg, stats.Labels{"endpoint": "node"})
	ws := wire.NewServer(f.name,
		wire.WithServerMetrics(wm),
		wire.WithServerStateHook(func(name, event, detail string) {
			log.Printf("wire %s: %s %s", name, event, detail)
		}))
	wire.RegisterReplica(ws, replica)
	wire.RegisterStore(ws, nodeCache)
	wire.RegisterNode(ws, srv)
	bound, err := ws.Listen(f.wireAddr)
	if err != nil {
		log.Fatal(err)
	}
	// The parent smoke process (and humans wiring -peers by hand) read the
	// address off stdout; everything else logs to stderr.
	fmt.Printf("wire listening on %s\n", bound)

	if f.addr == "" {
		select {}
	}
	log.Printf("node %s HTTP on %s", f.name, f.addr)
	log.Fatal(http.ListenAndServe(f.addr, nodeMux(reg)))
}

// nodeMux is the node role's HTTP surface: a health check and the node's
// metrics.
func nodeMux(reg *stats.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/metrics", guard(serving, metricsHandler(reg)))
	return mux
}

// masterPlane is the propagation plane the master and smoke roles share: a
// master database feeding per-node replication, a DUP engine pushing
// rendered pages through a wire group, a trigger monitor on the CDC feed,
// and a dispatcher fronting the nodes over the wire.
type masterPlane struct {
	reg         *stats.Registry
	suite       *obs.Suite
	master      *db.DB
	st          *site.Site
	engine      *core.Engine
	group       *wire.GroupClient
	replicators []*db.Replicator
	replicas    []*wire.ReplicaClient
	remotes     []*wire.RemoteNode
	mon         *trigger.Monitor
	nd          *dispatch.Dispatcher
}

// startMasterPlane wires the master side against the given node addresses:
// one pooled wire client per node carries all three flows (log shipping,
// cache pushes, serve/probe traffic).
func startMasterPlane(f flags, peers []string) *masterPlane {
	p := &masterPlane{reg: stats.NewRegistry()}
	tracer := trace.New(trace.WithSLO(f.slo), trace.WithRingSize(f.traceRing))
	tracer.RegisterMetrics(p.reg)
	p.suite = obs.NewSuite(obs.WithName("master"),
		obs.WithTracer(tracer), obs.WithMetrics(p.reg))
	p.suite.RegisterMetrics(p.reg, nil)

	p.master = db.New("master")
	p.master.RegisterMetrics(p.reg, stats.Labels{"db": "master"})
	shape := wireShaper(f.wan)

	wm := wire.NewMetrics()
	wm.RegisterMetrics(p.reg, stats.Labels{"endpoint": "master"})
	hook := func(name, event, detail string) {
		level := obs.LevelInfo
		if event == "disconnect" || event == "read_error" || event == "partition_drop" {
			level = obs.LevelWarn
		}
		p.suite.Journal.Event(level, "wire", event,
			"wire connection state change", "peer", name, "detail", detail)
	}

	var stores []*wire.StoreClient
	var pool []dispatch.Node
	for i, addr := range peers {
		name := fmt.Sprintf("up%d", i)
		opts := []wire.ClientOption{
			wire.WithClientMetrics(wm),
			wire.WithClientStateHook(hook),
		}
		if shape != nil {
			opts = append(opts, wire.WithShaper(shape))
		}
		c := wire.Dial(name, addr, opts...)
		stores = append(stores, wire.NewStoreClient(name, c))
		p.replicas = append(p.replicas, wire.NewReplicaClient(c))
		rn := wire.NewRemoteNode(name, c)
		p.remotes = append(p.remotes, rn)
		pool = append(pool, rn)
	}
	p.group = wire.NewGroupClient(stores,
		wire.WithGroupDowngradeHook(func(node string, key cache.Key) {
			p.suite.Journal.Event(obs.LevelWarn, "wire", "push_downgrade",
				"wire push exhausted retries; node entry invalidated",
				"node", node, "key", string(key))
		}))
	p.group.RegisterMetrics(p.reg, stats.Labels{"transport": "wire"})

	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	p.engine = core.NewEngine(odg.New(), p.group, core.WithGenerator(gen))
	var err error
	st, err = site.Build(multiSpec(f), p.master, p.engine)
	if err != nil {
		log.Fatal(err)
	}
	p.st = st
	p.engine.SetAssembler(st.Engine)
	p.engine.RegisterMetrics(p.reg, nil)

	// Ship the log (seed data included) to every node's replica, then wait
	// for catch-up so node-side miss renders see the same data the pushed
	// pages were rendered from.
	for _, rc := range p.replicas {
		p.replicators = append(p.replicators, db.StartReplicationTo(p.master, rc))
	}
	for i, r := range p.replicators {
		if !r.WaitCaughtUp(30 * time.Second) {
			log.Fatalf("node %d replica never caught up (lsn %d vs master %d)",
				i, p.replicas[i].LSN(), p.master.LSN())
		}
	}
	log.Printf("replicas caught up at lsn %d", p.master.LSN())

	log.Printf("prerendering %d pages into %d node caches over the wire...", len(st.Pages()), len(peers))
	var prerendered []*cache.Object
	if err := st.PrerenderAll(p.master.LSN(), func(o *cache.Object) { prerendered = append(prerendered, o) }); err != nil {
		log.Fatal(err)
	}
	p.group.ApplyBatch(prerendered)

	p.mon = trigger.New(trigger.Config{
		Name:     "master",
		DB:       p.master,
		Engine:   p.engine,
		StartLSN: p.master.LSN(),
	}, trigger.WithIndexer(st.Indexer), trigger.WithTracer(tracer))
	p.mon.RegisterMetrics(p.reg, nil)
	if err := p.mon.Start(context.Background()); err != nil {
		log.Fatal(err)
	}

	p.nd = dispatch.New(dispatch.Config{Name: "nd", Nodes: pool, ProbeInterval: probeInterval},
		dispatch.WithObserver(p.suite.Collector))
	if err := p.nd.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	p.nd.RegisterMetrics(p.reg, nil)
	return p
}

// runMaster is the propagation-plane process: it owns the master database,
// renders and pushes pages to the -peers nodes, ships them the log, and
// fronts them with a dispatcher on -addr.
func runMaster(f flags) {
	if f.peers == "" {
		log.Fatal("master role requires -peers (comma-separated node wire addresses; start nodes with -role node)")
	}
	peers := strings.Split(f.peers, ",")
	p := startMasterPlane(f, peers)
	go runGames(p.st, f.tick, f.seed)
	log.Printf("master listening on %s (%d pages, %d nodes over the wire)",
		f.addr, len(p.st.Pages()), len(peers))
	log.Fatal(http.ListenAndServe(f.addr, p.mux()))
}

// mux is the master role's HTTP surface: pages served through the
// dispatcher over the wire, plus health, sitemap and debug endpoints.
func (p *masterPlane) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		obj, outcome, err := p.nd.Serve(r.URL.Path)
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
		w.Header().Set("Content-Type", obj.ContentType)
		w.Header().Set("X-Cache", outcome.String())
		w.Header().Set("X-Version", fmt.Sprint(obj.Version))
		w.Write(obj.Value)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/sitemap", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, strings.Join(p.st.Pages(), "\n"))
	})
	mux.HandleFunc("/debug/metrics", guard(serving, metricsHandler(p.reg)))
	mux.HandleFunc("/debug/journal", guard(serving, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"events": p.suite.Journal.Recent(100)})
	}))
	return mux
}

// runSmoke is the loopback deployment check `make check` runs: self-exec
// -nodes node child processes, bring up the master plane against them,
// commit a result, and verify the wire carried it into every node — log
// shipping, cache push, and remote serve all exercised across real process
// boundaries. Exits 0 on success.
func runSmoke(f flags) {
	if f.days == 0 {
		f.days = 2 // keep the smoke site small
	}
	if f.nodes < 2 {
		f.nodes = 2
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}

	var peers []string
	var children []*exec.Cmd
	defer func() {
		for _, c := range children {
			c.Process.Kill()
			c.Wait()
		}
	}()
	for i := 0; i < f.nodes; i++ {
		name := fmt.Sprintf("up%d", i)
		cmd := exec.Command(exe, "-role", "node", "-name", name,
			"-wire-addr", "127.0.0.1:0", "-addr", "",
			"-days", strconv.Itoa(f.days), fmt.Sprintf("-paper=%t", f.paper))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			log.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		children = append(children, cmd)
		sc := bufio.NewScanner(out)
		addr := ""
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "wire listening on "); ok {
				addr = a
				break
			}
		}
		if addr == "" {
			log.Fatalf("node %s never reported its wire address", name)
		}
		go io.Copy(io.Discard, out) // keep the pipe drained
		peers = append(peers, addr)
		log.Printf("node %s up at %s", name, addr)
	}

	p := startMasterPlane(f, peers)
	defer p.group.Close()
	defer p.mon.Shutdown(context.Background())
	defer p.nd.Shutdown(context.Background())
	for _, r := range p.replicators {
		defer r.Stop()
	}

	// Every node must already hold every prerendered page: spot-check by
	// serving each page once through the dispatcher, then prove a fresh
	// commit reaches every node's cache over the wire.
	probePage := p.st.Pages()[0]
	serveAll := func() map[string][]byte {
		out := make(map[string][]byte)
		for _, rn := range p.remotes {
			obj, outcome, err := rn.Serve(probePage)
			if err != nil || outcome == httpserver.OutcomeError {
				log.Fatalf("%s: serve %s: outcome %v err %v", rn.Name(), probePage, outcome, err)
			}
			out[rn.Name()] = obj.Value
		}
		return out
	}
	serveAll()

	ev := p.st.Events[0]
	var changedPage string
	if tx, err := p.st.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "240.0"); err != nil {
		log.Fatal(err)
	} else {
		changedPage = fmt.Sprintf("lsn %d", tx.LSN)
	}
	p.mon.Flush()

	// The event's result page must now serve the new gold medalist from
	// every node's cache (a hit, pushed over the wire — not a re-render).
	resultPage := fmt.Sprintf("/en/sports/%s/%s", ev.Sport, ev.Key)
	okNodes := 0
	for _, rn := range p.remotes {
		obj, outcome, err := rn.Serve(resultPage)
		if err != nil {
			log.Fatalf("%s: serve %s: %v", rn.Name(), resultPage, err)
		}
		if outcome != httpserver.OutcomeHit {
			log.Fatalf("%s: %s served as %v, want pushed cache hit", rn.Name(), resultPage, outcome)
		}
		if !bytes.Contains(obj.Value, []byte(ev.Participants[0])) {
			log.Fatalf("%s: %s does not show the new result", rn.Name(), resultPage)
		}
		okNodes++
	}
	log.Printf("smoke ok: %s propagated to %d/%d nodes over the wire (%s)",
		resultPage, okNodes, len(p.remotes), changedPage)
	fmt.Println("SMOKE OK")
}

// runGames replays the competition on an accelerated clock: every tick a
// partial or final result arrives; every few ticks a story publishes; days
// roll over as events run out.
func runGames(st *site.Site, tick time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	day := 1
	storyNum := 0
	pending := append([]*site.Event(nil), st.Events...)
	partialsLeft := map[string]int{}
	for _, ev := range pending {
		partialsLeft[ev.Key] = 3
	}
	for range time.Tick(tick) {
		if len(pending) == 0 {
			log.Printf("games complete; feed idle")
			return
		}
		i := rng.Intn(len(pending))
		ev := pending[i]
		if partialsLeft[ev.Key] > 0 {
			partialsLeft[ev.Key]--
			leader := ev.Participants[rng.Intn(len(ev.Participants))]
			if _, err := st.RecordPartial(ev, leader, fmt.Sprintf("%.1f", 200+rng.Float64()*60)); err != nil {
				log.Printf("partial: %v", err)
			}
			continue
		}
		// Final result.
		p := ev.Participants
		g, s, b := p[rng.Intn(len(p))], p[rng.Intn(len(p))], p[rng.Intn(len(p))]
		if _, err := st.RecordResult(ev, g, s, b, fmt.Sprintf("%.1f", 240+rng.Float64()*20)); err != nil {
			log.Printf("result: %v", err)
		}
		log.Printf("result: %s gold=%s", ev.Key, g)
		pending = append(pending[:i], pending[i+1:]...)

		if rng.Intn(3) == 0 && storyNum < st.Spec.NewsStories {
			if _, err := st.PublishNews(storyNum, fmt.Sprintf("Story %d: drama at %s", storyNum, ev.Sport), "Live from Nagano."); err != nil {
				log.Printf("news: %v", err)
			}
			storyNum++
		}
		// Advance the day as the schedule drains.
		done := len(st.Events) - len(pending)
		wantDay := 1 + done*st.Spec.Days/len(st.Events)
		if wantDay > day && wantDay <= st.Spec.Days {
			day = wantDay
			if _, err := st.SetCurrentDay(day); err != nil {
				log.Printf("day rollover: %v", err)
			} else {
				log.Printf("day %d begins", day)
			}
		}
	}
}
