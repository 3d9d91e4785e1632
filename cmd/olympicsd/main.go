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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/deploy"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
	"dupserve/internal/netsim"
	"dupserve/internal/odg"
	"dupserve/internal/site"
	"dupserve/internal/stats"
	"dupserve/internal/weblog"
	"dupserve/internal/wire"
)

// probeInterval is how often each role's dispatcher sweeps its pool with
// advisor probes. One failed serve evicts a node at once; the sweep is what
// readmits it once its probe is healthy again, so a node restarting under
// load rejoins within one interval.
const probeInterval = 500 * time.Millisecond

// The front end's bounds: a client gets readHeaderTimeout to send its
// request headers and may hold an idle keep-alive connection for
// idleTimeout, so a slow or silent client cannot pin a goroutine forever.
// On SIGINT or SIGTERM the serving roles get drainTimeout to finish
// in-flight requests and propagation before the process exits.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 30 * time.Second
)

// logFlushInterval is how often the plant flushes the -accesslog file, so
// the file trails the traffic by at most this much.
const logFlushInterval = time.Second

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

// writePage answers one page request with what the dispatcher served:
// 404 for no route, 503 with Retry-After when every node shed it or no node
// is in the distribution list (both transient, not server faults), 500 with
// the error text on a failed render, and otherwise 200 with the page
// bytes, their content type, how they were served (X-Cache) and the
// version they reflect (X-Version). It returns the status and body length
// for the access log.
func writePage(w http.ResponseWriter, r *http.Request, obj *cache.Object, outcome httpserver.Outcome, err error) (status, bytes int) {
	switch {
	case outcome == httpserver.OutcomeNotFound:
		http.NotFound(w, r)
		return http.StatusNotFound, 0
	case outcome == httpserver.OutcomeShed, errors.Is(err, dispatch.ErrNoBackends):
		msg := "overloaded"
		if outcome != httpserver.OutcomeShed {
			msg = err.Error()
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, msg, http.StatusServiceUnavailable)
		return http.StatusServiceUnavailable, 0
	case outcome == httpserver.OutcomeError:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return http.StatusInternalServerError, 0
	}
	w.Header().Set("Content-Type", obj.ContentType)
	w.Header().Set("X-Cache", outcome.String())
	w.Header().Set("X-Version", fmt.Sprint(obj.Version))
	w.Write(obj.Value) // a failed write means the client left; nothing to do
	return http.StatusOK, len(obj.Value)
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
	flag.StringVar(&f.name, "name", "node", "this process's name (node role)")
	flag.StringVar(&f.wireAddr, "wire-addr", "127.0.0.1:0", "wire transport listen address (node role)")
	flag.StringVar(&f.peers, "peers", "", "comma-separated node wire addresses (master role)")
	flag.StringVar(&f.wan, "wan", "", `shape the wire like a link: "" none, "lan", "modem" (master role)`)
	flag.IntVar(&f.days, "days", 0, "override the site's day count (0 keeps the spec default)")
	flag.Parse()

	// The master role owns the master database, renders and pushes pages to
	// the -peers node processes, ships them the log, and fronts them.
	var cs deploy.ComplexSpec
	switch *role {
	case "all":
		cs = deploy.ComplexSpec{Name: "nagano", NodesPerFrame: f.nodes}
	case "master", "complex":
		if f.peers == "" {
			log.Fatal("master role requires -peers (comma-separated node wire addresses; start nodes with -role node)")
		}
		cs = deploy.ComplexSpec{Name: "master", Peers: strings.Split(f.peers, ","), Shaper: wireShaper(f.wan)}
	case "node":
		runNode(f)
		return
	case "smoke":
		runSmoke(f)
		return
	default:
		log.Fatalf("unknown -role %q (want all, node, master, or smoke)", *role)
	}
	// The listener comes up at once; once the caches are primed the games
	// feed begins. SIGINT or SIGTERM stops the feed and drains the plant.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p := newPlant(f, cs)
	go func() {
		p.prime()
		runGames(ctx, p.d.MasterSite, f.tick, f.seed)
	}()
	srv := newServer(f.addr, p.mux())
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	log.Printf("olympicsd listening on %s (%d pages, complex %s)", f.addr, len(p.cx.Site.Pages()), cs.Name)
	select {
	case err := <-served:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal ends the process at once
	log.Printf("draining")
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := p.shutdown(drain); err != nil {
		log.Printf("plant shutdown: %v", err)
	}
	log.Printf("drained")
}

// newServer is the bounded HTTP front end every role listens through.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
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

// plant is what every serving role runs: a deploy.Deployment of one
// complex, the registry its metrics publish into, and the access log its
// page handler feeds. The all role's complex is in-process; the master and
// smoke roles' complex is node processes over the wire.
type plant struct {
	d      *deploy.Deployment
	cx     *deploy.Complex
	reg    *stats.Registry
	ready  atomic.Bool
	access *weblog.Writer
	// closeLog stops flushing the -accesslog file, then flushes and closes
	// it (nil without one).
	closeLog func() error
}

// newPlant builds and starts the deployment of cs and registers its
// metrics. Its listener may come up at once: pages, /healthz and the
// /debug surface answer 503 with Retry-After until prime has warmed every
// node cache.
func newPlant(f flags, cs deploy.ComplexSpec) *plant {
	p := &plant{reg: stats.NewRegistry()}
	var opts []deploy.Option
	if len(cs.Peers) == 0 {
		// Consistency auditor: taps every served response; /debug/audit
		// shadow-renders the site against a snapshot of the replica.
		opts = append(opts, deploy.WithAudit())
	}
	cfg := deploy.Config{Spec: multiSpec(f), Complexes: []deploy.ComplexSpec{cs}, ProbeInterval: probeInterval, SLO: f.slo}
	d, err := deploy.New(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	d.RegisterMetrics(p.reg)
	p.d, p.cx = d, d.Complexes()[0]

	// Access log: aggregated as it is written, for /logreport, and
	// formatted to a file only with -accesslog — the log-driven
	// methodology behind the 1998 redesign.
	if f.accessLog == "" {
		p.access = weblog.NewWriter(nil)
		return p
	}
	file, err := os.Create(f.accessLog)
	if err != nil {
		log.Fatal(err)
	}
	p.access = weblog.NewWriter(file)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(logFlushInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := p.access.Flush(); err != nil {
					log.Printf("access log: %v", err)
				}
			}
		}
	}()
	p.closeLog = func() error {
		close(stop)
		<-stopped
		return errors.Join(p.access.Flush(), file.Close())
	}
	return p
}

// shutdown drains the deployment (the trigger monitor propagates what is
// committed), then flushes and closes the access-log file.
func (p *plant) shutdown(ctx context.Context) error {
	err := p.d.Shutdown(ctx)
	if p.closeLog != nil {
		err = errors.Join(err, p.closeLog())
	}
	return err
}

// prime prerenders the site into every node cache and marks the plant
// ready.
func (p *plant) prime() {
	log.Printf("prerendering %d pages into complex %s...", len(p.cx.Site.Pages()), p.cx.Name)
	if err := p.d.Prime(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	p.ready.Store(true)
	log.Printf("ready: %d pages primed", len(p.cx.Site.Pages()))
}

// mux is the HTTP surface both serving roles share: pages through the
// complex's dispatcher, the site map, health, statistics, the access-log
// report, and the /debug surface — Prometheus text, structured JSON,
// propagation traces, serve spans, the event journal, flight-recorder
// dumps, the consistency audit where the complex has an auditor, and
// pprof. Everything under /debug goes through guard.
func (p *plant) mux() *http.ServeMux {
	cx := p.cx
	debug := func(h http.HandlerFunc) http.HandlerFunc { return guard(p.ready.Load, h) }
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
		if !p.ready.Load() {
			// Before prime the replica may not have applied the seed, so
			// a render could fail; answer as /healthz does.
			w.Header().Set("Retry-After", "1")
			http.Error(w, "starting: prerendering site", http.StatusServiceUnavailable)
			p.access.Log(client, r.URL.Path, http.StatusServiceUnavailable, 0)
			return
		}
		obj, outcome, err := cx.Dispatcher.Serve(r.URL.Path)
		status, n := writePage(w, r, obj, outcome, err)
		p.access.Log(client, r.URL.Path, status, n)
	})
	mux.HandleFunc("/logreport", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.access.Report(10))
	})
	mux.HandleFunc("/sitemap", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, strings.Join(cx.Site.Pages(), "\n"))
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{
			"engine":     cx.Engine.Stats(),
			"trigger":    cx.Monitor().Stats(),
			"dispatcher": cx.Dispatcher.Stats(),
			"serve":      cx.Obs.Collector.Snapshot(),
			"freshness":  cx.Obs.Tracer.Snapshot(),
			"dbLSN":      p.d.Master.LSN(),
			"pages":      len(cx.Site.Pages()),
			"currentDay": p.d.MasterSite.CurrentDay(),
		}
		if cx.Cluster != nil {
			agg := cx.Cluster.Caches.AggregateStats()
			out["cache"], out["hitRate"] = agg, agg.HitRate()
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !p.ready.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/debug/metrics", debug(metricsHandler(p.reg)))
	mux.HandleFunc("/debug/metrics.json", debug(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"metrics":     p.reg.Snapshot(),
			"propagation": cx.Obs.Tracer.Snapshot(),
		})
	}))
	mux.HandleFunc("/debug/traces", debug(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"summary": cx.Obs.Tracer.Snapshot(),
			"traces":  cx.Obs.Tracer.Recent(queryN(r, 50)),
		})
	}))
	mux.HandleFunc("/debug/serve", debug(func(w http.ResponseWriter, r *http.Request) {
		renders, reuses := cx.Site.Engine.Accounting()
		es := cx.Engine.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"summary": cx.Obs.Collector.Snapshot(),
			"spans":   cx.Obs.Collector.Recent(queryN(r, 50)),
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
			"armed":    cx.Obs.Journal.Armed(),
			"appended": cx.Obs.Journal.Appended(),
			"events":   cx.Obs.Journal.Recent(queryN(r, 50)),
		})
	}))
	mux.HandleFunc("/debug/flight", debug(func(w http.ResponseWriter, r *http.Request) {
		rec := cx.Obs.Recorder
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
	if cx.Auditor != nil {
		mux.HandleFunc("/debug/audit", debug(func(w http.ResponseWriter, r *http.Request) {
			rep, err := cx.Auditor.Sweep()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if err := rep.WriteJSON(w); err != nil {
				log.Printf("audit report: %v", err)
			}
		}))
	}
	mux.HandleFunc("/debug/pprof/", debug(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", debug(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", debug(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", debug(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", debug(pprof.Trace))
	return mux
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

// runNode is one serving-node process: newNode's wire server listening on
// -wire-addr, and the node's HTTP surface on -addr. The bound wire address
// is printed as "wire listening on <addr>" for the smoke role's parent to
// parse.
func runNode(f flags) {
	ws, reg := newNode(f)
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
	log.Fatal(newServer(f.addr, nodeMux(reg)).ListenAndServe())
}

// newNode builds one serving node: a database replica fed over the wire by
// the master's log shipping, a cache the master pushes rendered pages into,
// and an HTTP serving layer the master's dispatcher forwards requests to —
// all three registered on one wire server, not yet listening — and the
// registry its metrics publish into.
func newNode(f flags) (*wire.Server, *stats.Registry) {
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
	return ws, reg
}

// nodeMux is the node role's HTTP surface: a health check and the node's
// metrics. The node listens only once startup is done, so it is always
// ready.
func nodeMux(reg *stats.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/metrics", guard(func() bool { return true }, metricsHandler(reg)))
	return mux
}

// runSmoke is the loopback deployment check `make check` runs: self-exec
// -nodes node child processes, bring up the master role's plant against
// them, commit a result, and verify the wire carried it into every node —
// log shipping, cache push, and remote serve all exercised across real
// process boundaries. It then checks the master's HTTP surface, and
// restarts node up1 empty on its old address: the restarted node must stay
// out of the distribution list, so every page served through the master
// still shows the commit. Exits 0 on success.
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

	// The children die with the smoke, on failure too: fail stops them
	// before exiting.
	var children []*exec.Cmd
	stop := func() {
		for _, c := range children {
			c.Process.Kill()
			c.Wait()
		}
	}
	defer stop()
	fail := func(format string, args ...any) {
		stop()
		log.Fatalf(format, args...)
	}
	startNode := func(name, wireAddr string) string {
		cmd := exec.Command(exe, "-role", "node", "-name", name,
			"-wire-addr", wireAddr, "-addr", "",
			"-days", strconv.Itoa(f.days), fmt.Sprintf("-paper=%t", f.paper))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fail("%v", err)
		}
		if err := cmd.Start(); err != nil {
			fail("%v", err)
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
			fail("node %s never reported its wire address", name)
		}
		go io.Copy(io.Discard, out) // keep the pipe drained
		log.Printf("node %s up at %s", name, addr)
		return addr
	}
	var peers []string
	for i := 0; i < f.nodes; i++ {
		peers = append(peers, startNode(fmt.Sprintf("up%d", i), "127.0.0.1:0"))
	}

	p := newPlant(f, deploy.ComplexSpec{Name: "master", Peers: peers})
	defer p.shutdown(context.Background())
	p.prime()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail("%v", err)
	}
	srv := newServer("", p.mux())
	defer srv.Close()
	go srv.Serve(ln)
	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			fail("%v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			fail("%v", err)
		}
		return resp, body
	}

	// The event's result page must now show the new gold medalist from
	// every node's cache: a hit, pushed over the wire — not a re-render —
	// fetched over a connection of the smoke's own to each node.
	st := p.d.MasterSite
	ev := st.Events[0]
	tx, err := st.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "240.0")
	if err != nil {
		fail("%v", err)
	}
	if !p.d.WaitFresh(30 * time.Second) {
		fail("lsn %d never reached every node", tx.LSN)
	}
	resultPage := fmt.Sprintf("/en/sports/%s/%s", ev.Sport, ev.Key)
	gold := []byte(fmt.Sprintf("<td>Gold</td><td><a href=/en/athletes/%s>", ev.Participants[0]))
	for i, addr := range peers {
		name := fmt.Sprintf("up%d", i)
		c := wire.Dial(name, addr)
		obj, outcome, err := wire.NewRemoteNode(name, c).Serve(resultPage)
		c.Close()
		if err != nil {
			fail("%s: serve %s: %v", name, resultPage, err)
		}
		if outcome != httpserver.OutcomeHit {
			fail("%s: %s served as %v, want pushed cache hit", name, resultPage, outcome)
		}
		if obj.Version < tx.LSN || !bytes.Contains(obj.Value, gold) {
			fail("%s: %s at version %d does not show the result committed at lsn %d", name, resultPage, obj.Version, tx.LSN)
		}
	}
	log.Printf("smoke: %s propagated to %d nodes over the wire (lsn %d)", resultPage, len(peers), tx.LSN)

	for _, path := range []string{"/stats", "/debug/metrics", "/debug/traces", "/debug/serve", "/debug/journal"} {
		if resp, _ := get(path); resp.StatusCode != http.StatusOK {
			fail("master GET %s: %s", path, resp.Status)
		}
	}
	// The master's tracer recorded the commit's propagation.
	var traces struct{ Summary map[string]any }
	if _, body := get("/debug/traces"); json.Unmarshal(body, &traces) != nil || len(traces.Summary) == 0 ||
		traces.Summary["recorded"] == float64(0) {
		fail("master /debug/traces = %s, want a summary with the commit recorded", body)
	}

	// Restart up1 empty on its old address. Its replica is back at LSN 0 and
	// replication stops at the gap, so the master must keep it out of the
	// distribution list instead of serving its version-0 pages.
	children[1].Process.Kill()
	children[1].Wait()
	startNode("up1", peers[1])
	time.Sleep(2 * probeInterval)
	for i := 0; i < 20; i++ {
		resp, body := get(resultPage)
		version, _ := strconv.ParseInt(resp.Header.Get("X-Version"), 10, 64)
		if resp.StatusCode != http.StatusOK || version < tx.LSN || !bytes.Contains(body, gold) {
			fail("master GET %s after restarting up1: %s, X-Version %q, want the result committed at lsn %d",
				resultPage, resp.Status, resp.Header.Get("X-Version"), tx.LSN)
		}
	}
	if _, metrics := get("/debug/metrics"); !bytes.Contains(metrics, []byte("\ndispatch_healthy_nodes{complex=\"master\"} 1\n")) {
		fail("master: dispatch_healthy_nodes is not 1 after restarting up1 empty")
	}
	log.Printf("smoke: up1 restarted empty stays out of the distribution list")

	// Those 20 GETs are the only pages requested through the master, so the
	// access log's live report counts exactly them.
	var rep weblog.Report
	if _, body := get("/logreport"); json.Unmarshal(body, &rep) != nil || rep.Entries != 20 || rep.Errors != 0 ||
		len(rep.TopPages) == 0 || rep.TopPages[0] != (weblog.PageCount{Path: resultPage, Hits: 20}) {
		fail("master /logreport = %s, want 20 entries, 0 errors, and %s first with 20 hits", body, resultPage)
	}
	fmt.Println("SMOKE OK")
}

// runGames replays the competition on an accelerated clock until ctx ends:
// every tick a partial or final result arrives; every few ticks a story
// publishes; days roll over as events run out.
func runGames(ctx context.Context, st *site.Site, tick time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	day := 1
	storyNum := 0
	pending := append([]*site.Event(nil), st.Events...)
	partialsLeft := map[string]int{}
	for _, ev := range pending {
		partialsLeft[ev.Key] = 3
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
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
