// Package httpserver implements the web-serving substrate (section 2 of the
// paper): a server that satisfies requests for dynamic pages cache-first,
// regenerating on miss via a persistent FastCGI-style server program.
//
// The paper's servers could serve cached dynamic pages "at roughly the same
// rates as static pages", but only because the CGI model — fork a process
// per request — was replaced with persistent server programs (FastCGI /
// NSAPI / ISAPI / ICAPI). The Server models both: its fast path is a
// direct in-process handler, and an optional per-request overhead hook
// reproduces the CGI cost for the E2 baseline benchmarks.
//
// Server doubles as the node model for the discrete-event simulation: the
// Serve method performs the full cache-first logic without any networking,
// and ServeHTTP wraps it for real sockets (cmd/olympicsd).
package httpserver

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/obs"
	"dupserve/internal/overload"
	"dupserve/internal/stats"
)

// Outcome classifies how a request was satisfied.
type Outcome uint8

const (
	// OutcomeHit means the page was served from the cache.
	OutcomeHit Outcome = iota
	// OutcomeMiss means the page was generated on demand (and cached).
	OutcomeMiss
	// OutcomeStatic means the page came from the static store.
	OutcomeStatic
	// OutcomeNotFound means no static page and no generator route matched.
	OutcomeNotFound
	// OutcomeError means generation failed.
	OutcomeError
	// OutcomeStale means the node was overloaded and degraded to a
	// retained stale copy within its freshness budget instead of rendering.
	OutcomeStale
	// OutcomeShed means the node was overloaded and refused the request
	// (HTTP 503 + Retry-After); the caller should try another node.
	OutcomeShed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeStatic:
		return "static"
	case OutcomeNotFound:
		return "notfound"
	case OutcomeError:
		return "error"
	case OutcomeStale:
		return "stale"
	case OutcomeShed:
		return "shed"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// ErrNoRoute is returned by Serve for paths with neither static content nor
// a generator.
var ErrNoRoute = errors.New("httpserver: no route")

// ErrOverloaded is returned (wrapping overload.ErrShed) when the node's
// admission controller refuses a render and no stale copy within the
// freshness budget exists. Unlike a node failure, an overloaded node is
// still healthy: dispatchers fail the request over without pulling the
// node from the pool.
var ErrOverloaded = errors.New("httpserver: node overloaded")

// VersionFunc reports the current data version (database LSN) so that pages
// generated on miss carry an accurate freshness stamp.
type VersionFunc func() int64

// Server is one serving node: a local cache in front of a page generator
// plus a static store. Safe for concurrent use.
type Server struct {
	name     string
	nameV    []string // []string{name}: ready-made X-Node header value
	cache    *cache.Cache
	gen      core.Generator
	version  VersionFunc
	overhead func() // simulated per-request invocation overhead (CGI fork)
	noCache  bool   // disable caching entirely (uncached-dynamic baseline)

	// Overload control: limiter gates renders on miss; staleBudget bounds
	// how old a degraded stale response may be. Both nil/zero without
	// WithOverload.
	limiter     *overload.Limiter
	staleBudget time.Duration

	mu     sync.RWMutex
	static map[string]*cache.Object

	// tap observes responses for consistency auditing; nil without
	// WithResponseTap.
	tap ResponseTap

	// probe attributes database reads to render spans; nil without
	// WithReadProbe.
	probe *obs.ReadProbe

	requests    stats.Counter
	hits        stats.Counter
	misses      stats.Counter
	statics     stats.Counter
	notFound    stats.Counter
	errs        stats.Counter
	bytesOut    stats.Counter
	servedStale stats.Counter    // degraded responses from the stale side-table
	shed        stats.Counter    // requests refused with 503 under overload
	staleAgeMax stats.Gauge      // worst staleness ever served, microseconds
	staleAge    *stats.Histogram // per-response staleness of degraded serves, seconds
}

// ResponseSample describes one served response as seen by a ResponseTap:
// which path was satisfied, how, with which bytes. Object is the
// served cache object (nil for OutcomeShed); StaleAge is the age of the
// retained copy for OutcomeStale and zero otherwise — the per-response age,
// not a high-water mark.
type ResponseSample struct {
	Path     string
	Outcome  Outcome
	Object   *cache.Object
	StaleAge time.Duration
}

// ResponseTap observes dynamic responses (hit, miss, stale, shed) as they
// are served. It runs on the request path, so it must be cheap; consistency
// auditors use it to sample served bytes for later shadow-render
// verification. Static, not-found and error outcomes are not tapped — they
// carry no cached dynamic content to audit.
type ResponseTap func(ResponseSample)

// WithResponseTap installs a response tap.
func WithResponseTap(tap ResponseTap) Option {
	return func(s *Server) { s.tap = tap }
}

// Option configures a Server.
type Option func(*Server)

// WithOverhead installs a hook executed once per dynamic request before any
// cache lookup, modeling per-invocation cost such as a CGI fork. Only the
// E2 experiment (the CGI baseline of BenchmarkE2_ServerThroughput) sets it.
func WithOverhead(f func()) Option {
	return func(s *Server) { s.overhead = f }
}

// WithoutCache disables the page cache: every dynamic request regenerates.
// This is the uncached-dynamic baseline of the E2 experiment, its only
// caller.
func WithoutCache() Option {
	return func(s *Server) { s.noCache = true }
}

// WithOverload installs admission control on the render path. Cache hits
// are always admitted — a hit costs no render capacity, which is exactly
// why the paper's caches made peak load survivable. On a miss the render
// passes through lim; when lim sheds, the node degrades to a retained
// stale copy no older than staleBudget if one exists (OutcomeStale), and
// only past that to OutcomeShed (503 + Retry-After). staleBudget <= 0
// disables the stale fallback, shedding immediately.
func WithOverload(lim *overload.Limiter, staleBudget time.Duration) Option {
	return func(s *Server) {
		s.limiter = lim
		s.staleBudget = staleBudget
	}
}

// WithReadProbe attributes database reads to serve spans: the probe's
// counter (installed on the serving replica via db.SetReadHook) is read
// before and after each render and the delta lands on the request's span as
// DBReads. Attribution is per-process — see obs.ReadProbe.
func WithReadProbe(p *obs.ReadProbe) Option {
	return func(s *Server) { s.probe = p }
}

// SpinOverhead returns an overhead hook that burns roughly n iterations of
// integer work, emulating CPU cost (a process fork, interpreter startup)
// without sleeping — so benchmarks account it as real work.
func SpinOverhead(n int) func() {
	return func() {
		x := uint64(88172645463325252)
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if x == 0 { // never true; defeats dead-code elimination
			panic("xorshift reached zero")
		}
	}
}

// New returns a serving node. c is the node-local page cache (typically a
// member of the complex's cache.Group); gen regenerates dynamic pages on
// miss (nil means dynamic misses 404); version stamps generated pages.
func New(name string, c *cache.Cache, gen core.Generator, version VersionFunc, opts ...Option) *Server {
	if version == nil {
		version = func() int64 { return 0 }
	}
	s := &Server{
		name:    name,
		nameV:   []string{name},
		cache:   c,
		gen:     gen,
		version: version,
		static:  make(map[string]*cache.Object),
		// Bounds chosen around typical freshness budgets (seconds to the
		// paper's one-minute SLO).
		staleAge: stats.NewHistogram(0.001, 0.01, 0.1, 1, 5, 15, 60),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name returns the node name.
func (s *Server) Name() string { return s.name }

// Cache returns the node-local cache.
func (s *Server) Cache() *cache.Cache { return s.cache }

// SetStatic installs a static page (served from the "file system", never
// cached or invalidated).
func (s *Server) SetStatic(path string, body []byte, contentType string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.static[path] = &cache.Object{Key: cache.Key(path), Value: body, ContentType: contentType}
}

// Ready is the synthetic health check dispatch advisors probe
// (dispatch.ReadyReporter). Nothing drains a Server, so it is always ready;
// answering here keeps dispatch.DefaultProbe from routing advisor sweeps
// through Serve, into the request counters and span stream.
func (s *Server) Ready() bool { return true }

// Limiter returns the node's admission controller (nil without
// WithOverload).
func (s *Server) Limiter() *overload.Limiter { return s.limiter }

// LoadSignal reports the node's scalar load (see overload.Limiter.Load):
// 0 idle, ~1 fully busy, >1 queueing. Nodes without admission control
// report 0 — they never claim to be saturated, matching their unbounded
// legacy behaviour. Dispatch advisors consume this to steer work away from
// overloaded nodes before they start shedding.
func (s *Server) LoadSignal() float64 {
	if s.limiter == nil {
		return 0
	}
	return s.limiter.Load()
}

// Serve satisfies one request for path, returning the object and how it was
// satisfied. This is the transport-independent core used by both ServeHTTP
// and the simulator.
func (s *Server) Serve(path string) (*cache.Object, Outcome, error) {
	return s.ServeCtx(context.Background(), path)
}

// ServeCtx is Serve with a request context. When ctx carries a serve span
// (minted by the dispatcher; see obs.FromContext) the node stamps its stage
// boundaries — cache lookup, admission, render, stale fallback — and the
// observed LSN onto it. All span methods are nil-safe, so untraced requests
// pay only a context lookup.
func (s *Server) ServeCtx(ctx context.Context, path string) (*cache.Object, Outcome, error) {
	s.requests.Inc()
	sp := obs.FromContext(ctx)

	s.mu.RLock()
	st, isStatic := s.static[path]
	s.mu.RUnlock()
	if isStatic {
		s.statics.Inc()
		s.bytesOut.Add(int64(len(st.Value)))
		return st, OutcomeStatic, nil
	}

	// Dynamic path: per-invocation overhead applies whether or not the
	// page is cached — it models invoking the server program at all.
	if s.overhead != nil {
		s.overhead()
	}

	if !s.noCache && s.cache != nil {
		obj, ok := s.cache.Get(cache.Key(path))
		sp.Stamp(obs.SpanLookup)
		if ok {
			s.hits.Inc()
			s.bytesOut.Add(int64(len(obj.Value)))
			sp.SetLSN(obj.Version)
			if s.tap != nil {
				s.tap(ResponseSample{Path: path, Outcome: OutcomeHit, Object: obj})
			}
			return obj, OutcomeHit, nil
		}
	}

	if s.gen == nil {
		s.notFound.Inc()
		return nil, OutcomeNotFound, fmt.Errorf("%w: %q", ErrNoRoute, path)
	}

	// Miss: the render is the expensive part, so it alone passes through
	// admission control. A shed degrades to bounded staleness, then to 503.
	if s.limiter != nil {
		release, err := s.limiter.Acquire()
		if err != nil {
			return s.degrade(sp, path)
		}
		defer release()
		sp.Stamp(obs.SpanAdmit)
	}
	var readsBefore int64
	if s.probe != nil {
		readsBefore = s.probe.Count()
	}
	obj, err := s.gen(cache.Key(path), s.version())
	if s.probe != nil {
		sp.AddDBReads(s.probe.Count() - readsBefore)
	}
	sp.Stamp(obs.SpanRender)
	if err != nil {
		if errors.Is(err, ErrNoRoute) || isUnknownPage(err) {
			s.notFound.Inc()
			return nil, OutcomeNotFound, err
		}
		s.errs.Inc()
		return nil, OutcomeError, err
	}
	if !s.noCache && s.cache != nil {
		s.cache.Put(obj)
	}
	s.misses.Inc()
	s.bytesOut.Add(int64(len(obj.Value)))
	sp.SetLSN(obj.Version)
	if s.tap != nil {
		s.tap(ResponseSample{Path: path, Outcome: OutcomeMiss, Object: obj})
	}
	return obj, OutcomeMiss, nil
}

// degrade handles a shed render: serve the invalidated entry's retained
// copy if it is within the freshness budget (stale-but-bounded beats a
// 503), otherwise refuse the request. GetStale enforces the budget itself,
// so a response can never be staler than staleBudget; staleAgeMax records
// the worst age actually served so the claim is measured, not assumed.
func (s *Server) degrade(sp *obs.Span, path string) (*cache.Object, Outcome, error) {
	if s.cache != nil && s.staleBudget > 0 {
		if obj, age, ok := s.cache.GetStale(cache.Key(path), s.staleBudget); ok {
			s.servedStale.Inc()
			s.staleAgeMax.Set(age.Microseconds()) // Max() keeps the worst ever served
			s.staleAge.Observe(age.Seconds())     // per-response distribution
			s.bytesOut.Add(int64(len(obj.Value)))
			sp.Stamp(obs.SpanStale)
			sp.SetLSN(obj.Version)
			if s.tap != nil {
				s.tap(ResponseSample{Path: path, Outcome: OutcomeStale, Object: obj, StaleAge: age})
			}
			return obj, OutcomeStale, nil
		}
	}
	s.shed.Inc()
	if s.tap != nil {
		s.tap(ResponseSample{Path: path, Outcome: OutcomeShed})
	}
	return nil, OutcomeShed, fmt.Errorf("%w: %q: %w", ErrOverloaded, s.name, overload.ErrShed)
}

// isUnknownPage sniffs generator "unknown page" errors without importing
// the fragment package (which would invert the layering). The fragment
// engine wraps its ErrUnknown with a message containing this marker.
func isUnknownPage(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unknown page")
}

// ETag derives the entity tag for a cached object from its version and
// size. Because DUP stamps every regenerated object with the LSN of the
// update that produced it, the tag changes exactly when the content does —
// conditional GETs ride the same freshness information the cache uses.
func ETag(obj *cache.Object) string {
	return fmt.Sprintf(`"v%d-%d"`, obj.Version, len(obj.Value))
}

// buildObjectHeaders formats an object's response-header material once; the
// result is memoized on the object (cache.Object.ResponseHeaders), so the
// per-request hit path only assigns ready-made slices into the header map.
func buildObjectHeaders(obj *cache.Object) *cache.ObjectHeaders {
	h := &cache.ObjectHeaders{
		ETag:    ETag(obj),
		Version: strconv.FormatInt(obj.Version, 10),
	}
	h.ETagV = []string{h.ETag}
	h.VersionV = []string{h.Version}
	if obj.ContentType != "" {
		h.ContentType = []string{obj.ContentType}
	}
	return h
}

// xCacheValue holds one ready-made header slice per outcome so the hit path
// never allocates to say how it served. Indexed by Outcome.
var xCacheValue = [...][]string{
	OutcomeHit:    {"hit"},
	OutcomeMiss:   {"miss"},
	OutcomeStatic: {"static"},
	OutcomeStale:  {"stale"},
}

// ServeHTTP implements http.Handler over Serve, with conditional-GET
// support: a matching If-None-Match yields 304 Not Modified with no body.
//
// The success path performs no heap allocation of its own: the entity tag
// and version strings are memoized on the cached object, and all header
// values are pre-built single-value slices assigned directly under their
// canonical keys (the spellings http.Header.Set would produce).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	obj, outcome, err := s.Serve(r.URL.Path)
	switch outcome {
	case OutcomeNotFound:
		http.NotFound(w, r)
		return
	case OutcomeError:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	case OutcomeShed:
		// Overloaded and no bounded-stale fallback: tell the client (or
		// front-end dispatcher) to come back, not that the node is broken.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded, retry shortly", http.StatusServiceUnavailable)
		return
	}
	hdr := obj.ResponseHeaders(buildObjectHeaders)
	h := w.Header()
	h["Etag"] = hdr.ETagV
	h["X-Cache"] = xCacheValue[outcome]
	h["X-Version"] = hdr.VersionV
	h["X-Node"] = s.nameV
	if r.Header.Get("If-None-Match") == hdr.ETag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if hdr.ContentType != nil {
		h["Content-Type"] = hdr.ContentType
	}
	if _, err := w.Write(obj.Value); err != nil {
		// Client went away mid-write; nothing further to do.
		return
	}
}

// ServerStats snapshots a node's counters.
type ServerStats struct {
	Requests int64
	Hits     int64
	Misses   int64
	Statics  int64
	NotFound int64
	Errors   int64
	BytesOut int64
	// ServedStale counts degraded responses served from the stale
	// side-table under overload.
	ServedStale int64
	// Shed counts requests refused under overload (503 + Retry-After).
	Shed int64
	// StaleAgeMax is the worst staleness ever served, which the freshness
	// budget bounds.
	StaleAgeMax time.Duration
}

// HitRate returns hits/(hits+misses) over dynamic requests only.
func (s ServerStats) HitRate() float64 {
	d := s.Hits + s.Misses
	if d == 0 {
		return 0
	}
	return float64(s.Hits) / float64(d)
}

// Stats returns a snapshot of the node's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:    s.requests.Value(),
		Hits:        s.hits.Value(),
		Misses:      s.misses.Value(),
		Statics:     s.statics.Value(),
		NotFound:    s.notFound.Value(),
		Errors:      s.errs.Value(),
		BytesOut:    s.bytesOut.Value(),
		ServedStale: s.servedStale.Value(),
		Shed:        s.shed.Value(),
		StaleAgeMax: time.Duration(s.staleAgeMax.Max()) * time.Microsecond,
	}
}

// RegisterMetrics publishes the node's request counters into a registry
// under a node label (plus any extra labels).
func (s *Server) RegisterMetrics(reg *stats.Registry, extra stats.Labels) {
	labels := stats.Labels{"node": s.name}
	for k, v := range extra {
		labels[k] = v
	}
	reg.RegisterCounter("http_requests_total", "requests served", labels, &s.requests)
	reg.RegisterCounter("http_cache_hits_total", "dynamic requests served from cache", labels, &s.hits)
	reg.RegisterCounter("http_cache_misses_total", "dynamic requests regenerated on miss", labels, &s.misses)
	reg.RegisterCounter("http_static_total", "static requests served", labels, &s.statics)
	reg.RegisterCounter("http_not_found_total", "requests with no route", labels, &s.notFound)
	reg.RegisterCounter("http_errors_total", "requests that failed generation", labels, &s.errs)
	reg.RegisterCounter("http_bytes_out_total", "response body bytes written", labels, &s.bytesOut)
	reg.RegisterCounter("served_stale_total",
		"responses degraded to a bounded-staleness copy under overload", labels, &s.servedStale)
	reg.RegisterCounter("shed_total",
		"requests refused under overload (503 + Retry-After)", labels, &s.shed)
	reg.RegisterFunc("served_stale_age_max_seconds",
		"worst staleness ever served; the freshness budget bounds it", labels,
		func() float64 { return float64(s.staleAgeMax.Max()) / 1e6 })
	reg.RegisterHistogram("served_stale_age_seconds",
		"per-response staleness of degraded responses", labels, s.staleAge)
	reg.RegisterFunc("http_hit_ratio", "dynamic hits/(hits+misses) since start", labels,
		func() float64 { return s.Stats().HitRate() })
	if s.limiter != nil {
		s.limiter.RegisterMetrics(reg, labels)
	}
}

// ResetStats zeroes the node's counters.
func (s *Server) ResetStats() {
	s.requests.Reset()
	s.hits.Reset()
	s.misses.Reset()
	s.statics.Reset()
	s.notFound.Reset()
	s.errs.Reset()
	s.bytesOut.Reset()
	s.servedStale.Reset()
	s.shed.Reset()
	s.staleAgeMax.Reset()
}
