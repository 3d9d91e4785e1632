package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/odg"
	"dupserve/internal/site"
)

// runConfig is one run of one workload.
type runConfig struct {
	w      workloadSpec
	spec   site.Spec
	seed   int64
	warmup time.Duration
	window time.Duration
	setups int // plants built and timed; the first one is measured
	trace  bool
	outDir string // where a traced run writes its span file
}

// metric is one named number of a run. n is the sample count behind it and
// pct the percentile actually read, when the metric is a percentile.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"pct,omitempty"`
}

// result is what a run reports.
type result struct {
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Problems lists what made operations fail, a few of each kind.
	Problems []string `json:"problems,omitempty"`
}

type commitRec struct {
	tx     db.Transaction
	t0, t1 int64 // just before the site.Record* call, and its return
}

// readerLog is what one reading generator keeps; each generator owns its
// log, so nothing is shared on the request path.
type readerLog struct {
	// latency, in ns from the due time (open loop) or the send (closed loop)
	// to the last byte of the body, kept per slice of the window.
	latency [][]uint32
	late    []uint32 // ns the generator sent after the due time, open loop only
	ok      int64
	hits    int64
	statics int64
	failed  int64
	errs    []string
}

type committerLog struct {
	commits  []commitRec
	late     []uint32
	backlog  int64 // live-rate bursts that began before the last one had propagated
	failed   int64
	errs     []string
	nextDue  int64
	sequence *committer
}

// run drives one workload against one plant.
type run struct {
	cfg      runConfig
	p        *plant
	reqs     [][]byte
	paths    []string
	start    int64 // warm-up begins
	winStart int64
	winEnd   int64
	// The window is cut into slices of about a second. Rates and latencies
	// are worked out per slice and the median slice is reported: this box
	// loses a CPU to its host for seconds at a time, and the typical second
	// of a window stays the same when a few of its seconds are lost.
	sliceLen int64
	ticks    []tick // taken at the window's start and at the end of each slice
	readers  []*readerLog
	cl       *committerLog
}

// tick is what the main goroutine reads at a slice boundary.
type tick struct {
	cpu   time.Duration // process user+sys so far
	pages int64         // MonitorStats.PagesUpdated so far
}

func (r *run) tick() tick {
	var t tick
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		t.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	t.pages = r.p.mon.Stats().PagesUpdated
	return t
}

// windowPages is the number of objects installed during the window.
func (r *run) windowPages() int64 { return r.ticks[len(r.ticks)-1].pages - r.ticks[0].pages }

func (r *run) inWindow(t int64) bool { return t >= r.winStart && t < r.winEnd }

// sleepUntil parks the calling generator until t. The runtime's own timers
// wake an otherwise idle process with millisecond granularity, which at a
// request every millisecond would make the generator half an interval late
// on average, so the last stretch is slept in the kernel.
func sleepUntil(t int64) {
	const fine = 3 * time.Millisecond
	if d := time.Duration(t - now()); d > fine {
		time.Sleep(d - fine)
	}
	if d := t - now(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil)
	}
}

func clampU32(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// check judges one response as it arrives.
func (r *run) check(path string, resp response, err error) string {
	switch {
	case err != nil:
		return "transport: " + err.Error()
	case resp.status != 200:
		return fmt.Sprintf("status %d for %s", resp.status, path)
	case len(resp.body) == 0:
		return "empty body for " + path
	case resp.cache == "static":
		return ""
	case resp.version < r.p.prerenderLSN:
		return fmt.Sprintf("%s at version %d, older than the prerender at %d", path, resp.version, r.p.prerenderLSN)
	case !bytes.HasSuffix(resp.body, []byte("</html>")) && !bytes.HasSuffix(resp.body, []byte("}")):
		return "truncated body for " + path
	}
	return ""
}

func (l *readerLog) note(problem string) {
	l.failed++
	if len(l.errs) < 3 {
		l.errs = append(l.errs, problem)
	}
}

// one issues request i and books it against the due time.
func (r *run) one(l *readerLog, c *conn, i int, due int64, openLoop bool) {
	i %= len(r.reqs)
	sent := now()
	resp, err := c.get(r.reqs[i])
	done := now()
	if !r.inWindow(due) {
		return
	}
	if openLoop {
		l.late = append(l.late, clampU32(sent-due))
	}
	if problem := r.check(r.paths[i], resp, err); problem != "" {
		l.note(problem)
		return
	}
	l.ok++
	switch resp.cache {
	case "hit":
		l.hits++
	case "static":
		l.statics++
	}
	slice := int((due - r.winStart) / r.sliceLen)
	for len(l.latency) <= slice {
		l.latency = append(l.latency, nil)
	}
	l.latency[slice] = append(l.latency[slice], clampU32(done-due))
	if r.p.tr != nil {
		r.p.tr.add(layerClient, resp.span, sent, done)
	}
}

// readClosed is one closed-loop connection: the next request goes out when
// the last response is in. between, when set, runs between requests; it is
// how the first closed-loop reader also issues the live-rate commits, so
// that they need no generator of their own.
func (r *run) readClosed(l *readerLog, c *conn, offset int, between func()) {
	for i := offset; now() < r.winEnd; i++ {
		if between != nil {
			between()
		}
		r.one(l, c, i, now(), false)
	}
}

// readOpen is one open-loop connection at a fixed rate. Latency runs from
// the due time, so a stall is charged to every request it delays.
func (r *run) readOpen(l *readerLog, c *conn, rate float64) {
	interval := float64(time.Second) / rate
	for k := 0; ; k++ {
		due := r.start + int64(float64(k)*interval)
		if due >= r.winEnd {
			return
		}
		sleepUntil(due)
		r.one(l, c, k, due, true)
	}
}

// burst commits n transactions back to back.
func (r *run) burst(n int) {
	cl := r.cl
	for j := 0; j < n; j++ {
		t0 := now()
		tx, err := cl.sequence.next()
		t1 := now()
		if !r.inWindow(t0) {
			continue
		}
		if err != nil || tx.LSN == 0 {
			cl.failed++
			if len(cl.errs) < 3 {
				cl.errs = append(cl.errs, fmt.Sprintf("commit: lsn %d, %v", tx.LSN, err))
			}
			continue
		}
		cl.commits = append(cl.commits, commitRec{tx, t0, t1})
		if r.p.tr != nil {
			r.p.tr.add(layerCommit, tx.LSN, t0, t1)
		}
	}
}

// dueBurst issues the live-rate burst if its time has come.
func (r *run) dueBurst() {
	cl := r.cl
	t := now()
	if t < cl.nextDue {
		return
	}
	if r.inWindow(cl.nextDue) {
		cl.late = append(cl.late, clampU32(t-cl.nextDue))
		if r.p.mon.LastLSN() < r.p.master.LSN() {
			cl.backlog++
		}
	}
	r.burst(r.cfg.w.burst)
	cl.nextDue += int64(r.cfg.w.commitEvery)
}

func (r *run) commitClosed() {
	for now() < r.winEnd {
		r.burst(r.cfg.w.burst)
		r.p.mon.Flush()
	}
}

// counters is what the main goroutine reads at both ends of a traced
// window.
type counters struct {
	mem              runtime.MemStats
	batches, txs     int64
	coalesced        int64
	renders, reuses  int64
	misses, stales   int64
	sheds, failovers int64
	frames, bytes    int64
	callErrors       int64
}

func (r *run) snapshot() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	ms := r.p.mon.Stats()
	c.batches, c.txs, c.coalesced = ms.Batches, ms.Transactions, ms.Coalesced
	c.renders, c.reuses = r.p.st.Engine.Accounting()
	for _, s := range r.p.servers {
		st := s.Stats()
		c.misses += st.Misses
		c.stales += st.ServedStale
		c.sheds += st.Shed
	}
	c.failovers = r.p.nd.Stats().Failovers
	if wm := r.p.wm; wm != nil {
		// Frames and bytes of the push plane: everything the master sent
		// but the serve requests.
		c.frames = wm.FramesSent.Value() - r.p.serves.frames.Load()
		c.bytes = wm.BytesSent.Value() - r.p.serves.bytes.Load()
		c.callErrors = wm.CallErrors.Value()
	}
	return c
}

// buildTimed builds one plant and returns how many seconds that took.
func buildTimed(cfg runConfig, tr *tracer) (*plant, float64, error) {
	t0 := time.Now()
	p, err := buildPlant(cfg.spec, cfg.w.wire, tr)
	return p, time.Since(t0).Seconds(), err
}

// runWorkload sets up, warms up, measures and checks one workload.
func runWorkload(cfg runConfig) (*result, error) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return nil, fmt.Errorf("refused: two load generators need 2 CPUs and GOMAXPROCS may not exceed num_cpu (num_cpu %d, GOMAXPROCS %d)",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	p, took, err := buildTimed(cfg, tr)
	if err != nil {
		return nil, err
	}
	res, err := measure(cfg, p)
	p.close()
	if err != nil {
		return nil, err
	}
	// The plant measured is the first one built, so the window runs on a
	// heap no earlier plant has used; the others are built for their time
	// only, which makes setup_s a median instead of one draw.
	times := []float64{took}
	for len(times) < cfg.setups {
		runtime.GC()
		q, took, err := buildTimed(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", len(times), err)
		}
		q.close()
		times = append(times, took)
	}
	_, median, _ := quartiles(times)
	res.EndToEnd["setup_s"] = metric{Value: median, Unit: "s", N: len(times)}
	return res, nil
}

// measure drives cfg's workload against p and checks what came out.
func measure(cfg runConfig, p *plant) (*result, error) {
	var err error
	tr := p.tr
	r := &run{cfg: cfg, p: p}
	r.paths = requestMix(cfg.seed, p.st, 1<<16)
	r.reqs = make([][]byte, len(r.paths))
	for i, path := range r.paths {
		r.reqs[i] = request(path)
	}
	r.cl = &committerLog{sequence: newCommitter(cfg.seed, p.st)}

	w := cfg.w
	nReaders := w.readers
	if nReaders == 0 {
		nReaders = 1
	}
	conns := make([]*conn, nReaders)
	for i := range conns {
		if conns[i], err = dial(p.addr); err != nil {
			return nil, err
		}
		defer conns[i].close()
		r.readers = append(r.readers, &readerLog{})
	}

	runtime.GC()
	r.start = now()
	r.winStart = r.start + int64(cfg.warmup)
	r.winEnd = r.winStart + int64(cfg.window)
	slices := int64(cfg.window.Round(time.Second) / time.Second)
	if slices == 0 {
		slices = 1
	}
	r.sliceLen = int64(cfg.window) / slices
	r.cl.nextDue = r.start

	// The generators: the readers, plus a committer unless the first
	// closed-loop reader carries the commits.
	var wg sync.WaitGroup
	gen := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	for i := range conns {
		i := i
		switch {
		case w.readers == 0:
			gen(func() { r.readOpen(r.readers[i], conns[i], w.readRate) })
		case i == 0:
			gen(func() { r.readClosed(r.readers[i], conns[i], 0, r.dueBurst) })
		default:
			gen(func() { r.readClosed(r.readers[i], conns[i], i*len(r.reqs)/nReaders, nil) })
		}
	}
	if w.readers == 0 {
		gen(r.commitClosed)
	}

	sleepUntil(r.winStart)
	var before, after counters
	if tr != nil {
		before = r.snapshot()
		tr.on.Store(true)
	}
	r.ticks = append(r.ticks, r.tick())
	goroutinesPeak := 0
	for edge := r.winStart + r.sliceLen; edge <= r.winEnd; edge += r.sliceLen {
		for now() < edge-int64(50*time.Millisecond) {
			if n := runtime.NumGoroutine(); n > goroutinesPeak {
				goroutinesPeak = n
			}
			time.Sleep(50 * time.Millisecond)
		}
		sleepUntil(edge)
		r.ticks = append(r.ticks, r.tick())
	}
	if tr != nil {
		after = r.snapshot()
		tr.on.Store(false)
	}
	wg.Wait()
	p.mon.Flush()
	if err := p.waitReplicas(); err != nil {
		return nil, err
	}

	res := &result{EndToEnd: map[string]metric{}}
	fresh, batchOf := r.freshness(res)
	r.endToEnd(res, fresh)
	if tr != nil {
		res.PerLayer = map[string]metric{}
		r.perLayer(res, fresh, batchOf, before, after, goroutinesPeak)
		if cfg.outDir != "" {
			if err := tr.write(filepath.Join(cfg.outDir, "trace_"+w.name+".json"), 50000); err != nil {
				return nil, err
			}
		}
	}
	r.gate(res)

	// The plant's own heap: the bench's logs and inputs are dropped first.
	r.readers, r.reqs, r.paths, r.cl = nil, nil, nil, nil
	if tr != nil {
		tr.blocks = nil
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.EndToEnd["heap_inuse_mb"] = metric{Value: float64(mem.HeapInuse) / 1e6, Unit: "MB"}
	return res, nil
}

// freshness returns, per committed transaction, the time from just before
// the commit call to the moment the last page of its batch was installed in
// the last serving node's cache. A transaction whose batch never reached
// every node is counted failed.
func (r *run) freshness(res *result) (fresh []float64, batchOf []int64) {
	// lastAt[v] is when the last node finished batch v, 0 if a node missed it.
	var versions []int64
	lastAt := map[int64]int64{}
	for i, np := range r.p.nodeProbes {
		at := map[int64]int64{}
		for _, b := range np.batches() {
			at[b.version] = b.last
			if i == 0 {
				versions = append(versions, b.version)
				lastAt[b.version] = b.last
			}
		}
		for _, v := range versions {
			if at[v] == 0 || lastAt[v] == 0 {
				lastAt[v] = 0
			} else if at[v] > lastAt[v] {
				lastAt[v] = at[v]
			}
		}
	}
	for _, c := range r.cl.commits {
		i := sort.Search(len(versions), func(i int) bool { return versions[i] >= c.tx.LSN })
		var end int64
		if i < len(versions) {
			end = lastAt[versions[i]]
		}
		if end == 0 {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("lsn %d never reached every node", c.tx.LSN))
			batchOf = append(batchOf, 0)
			continue
		}
		fresh = append(fresh, float64(end-c.t0)/1e6)
		batchOf = append(batchOf, versions[i])
	}
	return fresh, batchOf
}

// clientLatency is the client-observed latency in ms, all readers together:
// per slice, and over the whole window.
func (r *run) clientLatency() (slices []dist, whole *dist) {
	slices = make([]dist, len(r.ticks)-1)
	whole = &dist{}
	for _, l := range r.readers {
		for i, slice := range l.latency {
			for _, ns := range slice {
				slices[i].add(float64(ns) / 1e6)
				whole.add(float64(ns) / 1e6)
			}
		}
	}
	return slices, whole
}

func (r *run) endToEnd(res *result, fresh []float64) {
	var ok, hits, statics int64
	for _, l := range r.readers {
		ok += l.ok
		hits += l.hits
		statics += l.statics
		res.Attempted += l.ok + l.failed
		res.Failed += l.failed
		res.Problems = append(res.Problems, l.errs...)
	}
	res.Attempted += int64(len(r.cl.commits)) + r.cl.failed
	res.Failed += r.cl.failed
	res.Problems = append(res.Problems, r.cl.errs...)

	// The typical slice: responses and installs per second, the latency 95 %
	// of responses stay under, and the CPU one operation costs.
	slices, _ := r.clientLatency()
	secs := time.Duration(r.sliceLen).Seconds()
	var rps, p95, pps, cpu dist
	for i := range slices {
		from, to := r.ticks[i], r.ticks[i+1]
		served, pages := float64(slices[i].n()), float64(to.pages-from.pages)
		rps.add(served / secs)
		p95.add(slices[i].at(95))
		pps.add(pages / secs)
		cpu.add(ratioF(float64((to.cpu - from.cpu).Microseconds()), served+pages))
	}
	pages := r.windowPages()
	var fd dist
	for _, ms := range fresh {
		fd.add(ms)
	}

	e := res.EndToEnd
	e["serve_rps"] = metric{Value: rps.at(50), Unit: "1/s", N: int(ok)}
	e["serve_p95_ms"] = metric{Value: p95.at(50), Unit: "ms", N: int(ok), Pct: 95}
	e["hit_ratio"] = metric{Value: ratio(hits, ok-statics), Unit: "ratio", N: int(ok - statics)}
	put(e, "fresh_p50_ms", &fd, 50, "ms")
	put(e, "fresh_p95_ms", &fd, 95, "ms")
	e["propagate_pages_per_s"] = metric{Value: pps.at(50), Unit: "1/s", N: int(pages)}
	e["cpu_us_per_op"] = metric{Value: cpu.at(50), Unit: "us", N: int(ok + pages)}
}

func ratio(a, b int64) float64 { return ratioF(float64(a), float64(b)) }

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gate is the end-of-run correctness check: on every node, a seeded sample
// of 200 pages and every object the last 10 transactions affected must hold
// exactly the bytes a fresh render gives now, at a version no older than the
// transaction that last touched them.
func (r *run) gate(res *result) {
	p := r.p
	floor := map[cache.Key]int64{}
	pages := p.st.Pages()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for i := 0; i < 200 && i < len(pages); i++ {
		floor[cache.Key(pages[rng.Intn(len(pages))])] = p.prerenderLSN
	}
	commits := r.cl.commits
	if len(commits) > 10 {
		commits = commits[len(commits)-10:]
	}
	for _, c := range commits {
		for _, id := range p.graph.Affected(changedIDs(p.st, c.tx)...) {
			floor[cache.Key(id)] = c.tx.LSN
		}
	}
	lsn := p.master.LSN()
	bad := 0
	for key, min := range floor {
		want, err := p.st.Engine.Generate(key, lsn)
		if err != nil {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("gate: render %s: %v", key, err))
			continue
		}
		for _, c := range p.caches {
			res.Attempted++
			got, ok := c.Peek(key)
			switch {
			case !ok:
				bad++
				res.Problems = append(res.Problems, fmt.Sprintf("gate: %s missing on %s", key, c.Name()))
			case got.Version < min:
				bad++
				res.Problems = append(res.Problems, fmt.Sprintf("gate: %s on %s at version %d, needs %d", key, c.Name(), got.Version, min))
			case !bytes.Equal(got.Value, want.Value):
				bad++
				res.Problems = append(res.Problems, fmt.Sprintf("gate: %s on %s is stale", key, c.Name()))
			}
		}
	}
	res.Failed += int64(bad)
	if len(res.Problems) > 12 {
		res.Problems = res.Problems[:12]
	}
}

func changedIDs(st *site.Site, tx db.Transaction) []odg.NodeID {
	var ids []odg.NodeID
	for _, ch := range tx.Changes {
		ids = append(ids, st.Indexer(ch)...)
	}
	return ids
}
