package main

import (
	"math"
	"time"

	"dupserve/internal/cache"
)

// reconcileBound is how far the sum of median self times along a blocking
// path may sit from the end-to-end median before the run is refused.
const reconcileBound = 0.15

// put records a percentile metric of d in the given unit.
func put(m map[string]metric, name string, d *dist, want float64, unit string) {
	v, used := d.tail(want)
	m[name] = metric{Value: v, Unit: unit, N: d.n(), Pct: used}
}

func count(m map[string]metric, name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// perLayer turns the spans and counters of a traced run into the per-layer
// metrics, among them how far each budget's layer medians sum from the
// end-to-end median.
func (r *run) perLayer(res *result, fresh []float64, batchOf []int64, before, after counters, goroutinesPeak int) {
	m := res.PerLayer
	tr := r.p.tr

	// Serve budget: per request id, each layer's span; self time is the span
	// minus the child's.
	maxID := r.p.nextReq.Load()
	durs := map[layer][]int64{}
	for _, l := range []layer{layerClient, layerDispatch, layerNode, layerRemote} {
		durs[l] = make([]int64, maxID+1)
	}
	byVersion := map[layer]map[int64]*batchRec{layerGen: {}, layerPush: {}}
	var genUs, pushUs, applyUs, lagMs dist
	tr.each(func(s span) {
		d := s.end - s.start
		switch s.layer {
		case layerClient, layerDispatch, layerNode, layerRemote:
			if s.id > 0 && s.id <= maxID {
				durs[s.layer][s.id] = d
			}
		case layerGen, layerPush:
			b := byVersion[s.layer][s.id]
			if b == nil {
				b = &batchRec{version: s.id, first: s.start}
				byVersion[s.layer][s.id] = b
			}
			b.puts++
			if s.start < b.first {
				b.first = s.start
			}
			if s.end > b.last {
				b.last = s.end
			}
			if s.layer == layerGen {
				genUs.add(float64(d) / 1e3)
			} else {
				pushUs.add(float64(d) / 1e3)
			}
		case layerApply:
			applyUs.add(float64(d) / 1e3)
		case layerReplica:
			lagMs.add(float64(d) / 1e6)
		}
	})
	var client, nethttp, dispatchSelf, node, rpc dist
	for id := int64(1); id <= maxID; id++ {
		c, d, n, rm := durs[layerClient][id], durs[layerDispatch][id], durs[layerNode][id], durs[layerRemote][id]
		if c == 0 || d == 0 || n == 0 {
			continue // outside the window, or failed
		}
		client.add(float64(c) / 1e3)
		nethttp.add(float64(c-d) / 1e3)
		node.add(float64(n) / 1e3)
		if r.cfg.w.wire {
			dispatchSelf.add(float64(d-rm) / 1e3)
			rpc.add(float64(rm-n) / 1e3)
		} else {
			dispatchSelf.add(float64(d-n) / 1e3)
		}
	}
	put(m, "nethttp.self_us_p50", &nethttp, 50, "us")
	put(m, "nethttp.self_us_p99", &nethttp, 99, "us")
	put(m, "dispatch.self_us_p50", &dispatchSelf, 50, "us")
	put(m, "dispatch.self_us_p99", &dispatchSelf, 99, "us")
	put(m, "httpserver.serve_us_p50", &node, 50, "us")
	put(m, "httpserver.serve_us_p99", &node, 99, "us")
	put(m, "wire.serve_rpc_us_p50", &rpc, 50, "us")
	put(m, "wire.serve_rpc_us_p99", &rpc, 99, "us")
	count(m, "dispatch.failovers", float64(after.failovers-before.failovers), "count", 0)
	count(m, "httpserver.misses", float64(after.misses-before.misses), "count", 0)
	count(m, "httpserver.stales", float64(after.stales-before.stales), "count", 0)
	count(m, "httpserver.sheds", float64(after.sheds-before.sheds), "count", 0)

	var late dist
	for _, l := range r.readers {
		for _, ns := range l.late {
			late.add(float64(ns) / 1e6)
		}
	}
	for _, ns := range r.cl.late {
		late.add(float64(ns) / 1e6)
	}
	put(m, "gen_late_ms_p99", &late, 99, "ms")

	_, lat := r.clientLatency()
	put(m, "serve_p50_ms", lat, 50, "ms")
	put(m, "serve_p99_ms", lat, 99, "ms")
	// The serve budget is checked against the client span, request written
	// to body read. An open-loop reader's latency also holds how late the
	// generator sent, which is the bench's doing and is reported apart.
	serveSum := nethttp.at(50) + dispatchSelf.at(50) + node.at(50) + rpc.at(50)
	count(m, "serve_gap_pct", gap(serveSum, client.at(50))*100, "%", client.n())

	// Freshness budget, per transaction: time in the commit call, wait until
	// the trigger monitor's batch makes its first generator or store call,
	// and the batch from there to the return of its last push.
	var commitUs, waitMs, batchMs dist
	for i, c := range r.cl.commits {
		commitUs.add(float64(c.t1-c.t0) / 1e3)
		g, p := byVersion[layerGen][batchOf[i]], byVersion[layerPush][batchOf[i]]
		if p == nil {
			continue
		}
		first := p.first
		if g != nil && g.first < first {
			first = g.first
		}
		waitMs.add(math.Max(0, float64(first-c.t1)/1e6))
		batchMs.add(float64(p.last-first) / 1e6)
	}
	put(m, "db.commit_us_p50", &commitUs, 50, "us")
	put(m, "db.commit_us_p99", &commitUs, 99, "us")
	put(m, "trigger.wait_ms_p50", &waitMs, 50, "ms")
	put(m, "trigger.wait_ms_p95", &waitMs, 95, "ms")
	put(m, "core.batch_ms_p50", &batchMs, 50, "ms")
	put(m, "core.batch_ms_p95", &batchMs, 95, "ms")
	batches := after.batches - before.batches
	count(m, "core.pages_per_batch", ratio(int64(pushUs.n()), batches), "count", int(batches))
	count(m, "trigger.batches", float64(batches), "count", 0)
	count(m, "trigger.tx_per_batch", ratio(after.txs-before.txs, batches), "count", int(batches))
	count(m, "trigger.coalesced", float64(after.coalesced-before.coalesced), "count", 0)
	count(m, "trigger.backlog_bursts", float64(r.cl.backlog), "count", len(r.cl.late))

	var fd dist
	for _, ms := range fresh {
		fd.add(ms)
	}
	freshSum := commitUs.at(50)/1e3 + waitMs.at(50) + batchMs.at(50)
	freshGap := gap(freshSum, fd.at(50))
	count(m, "fresh_gap_pct", freshGap*100, "%", fd.n())

	put(m, "fragment.render_us_p50", &genUs, 50, "us")
	put(m, "fragment.render_us_p99", &genUs, 99, "us")
	renders, reuses := after.renders-before.renders, after.reuses-before.reuses
	count(m, "fragment.renders", float64(renders), "count", 0)
	count(m, "fragment.reuse_ratio", ratio(reuses, renders+reuses), "ratio", int(renders+reuses))

	// The master-side push seam is the cache group in process and the wire
	// group client over the wire; each plant fills its own pair of names.
	var none dist
	local, remote := &pushUs, &none
	if r.cfg.w.wire {
		local, remote = &none, &pushUs
	}
	put(m, "cache.push_us_p50", local, 50, "us")
	put(m, "cache.push_us_p99", local, 99, "us")
	put(m, "wire.push_us_p50", remote, 50, "us")
	put(m, "wire.push_us_p99", remote, 99, "us")
	put(m, "wire.apply_us_p50", &applyUs, 50, "us")
	put(m, "wire.replica_lag_ms_p95", &lagMs, 95, "ms")
	installs := r.windowPages() * int64(len(r.p.caches))
	count(m, "wire.frames_per_page", ratio(after.frames-before.frames, installs), "count", int(installs))
	count(m, "wire.bytes_per_page", ratio(after.bytes-before.bytes, installs), "B", int(installs))
	count(m, "wire.push_retries", float64(after.callErrors-before.callErrors), "count", 0)
	count(m, "wire.downgrades", float64(r.p.downgrades.Load()), "count", 0)

	var items, bytes int64
	for _, c := range r.p.caches {
		items += int64(c.Len())
		bytes += c.Bytes()
	}
	count(m, "cache.items", float64(items), "count", 0)
	count(m, "cache.bytes_mb", float64(bytes)/1e6, "MB", 0)
	r.directCalls(m)

	ops := res.EndToEnd["cpu_us_per_op"].N
	count(m, "runtime.allocs_per_op", ratioF(float64(after.mem.Mallocs-before.mem.Mallocs), float64(ops)), "count", ops)
	count(m, "runtime.gc_pause_ms_total", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms",
		int(after.mem.NumGC-before.mem.NumGC))
	count(m, "runtime.goroutines_peak", float64(goroutinesPeak), "count", 0)

	// The traced run's own end-to-end figures: against the untraced medians
	// they give the tracing overhead.
	for _, name := range []string{"serve_rps", "serve_p95_ms", "fresh_p50_ms", "propagate_pages_per_s"} {
		m["traced."+name] = res.EndToEnd[name]
	}
}

// gap is |sum - whole| as a share of whole.
func gap(sum, whole float64) float64 {
	if whole == 0 {
		return 1
	}
	return math.Abs(sum-whole) / whole
}

// directCalls times the two layers no decorator reaches, after the window:
// cache lookups over the run's own key sequence, and the dependence-graph
// traversal replayed for every transaction the run committed.
func (r *run) directCalls(m map[string]metric) {
	const group = 64
	var getNs dist
	c := r.p.caches[0]
	for i := 0; i+group <= len(r.paths) && i < 1000*group; i += group {
		t0 := time.Now()
		for _, path := range r.paths[i : i+group] {
			c.Get(cache.Key(path))
		}
		getNs.add(float64(time.Since(t0).Nanoseconds()) / group)
	}
	put(m, "cache.get_ns_p50", &getNs, 50, "ns")

	var affUs dist
	affected := 0
	commits := r.cl.commits
	if len(commits) > 2000 {
		commits = commits[:2000]
	}
	for _, c := range commits {
		ids := changedIDs(r.p.st, c.tx)
		t0 := time.Now()
		affected += len(r.p.graph.Affected(ids...))
		affUs.add(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	put(m, "odg.affected_us_p50", &affUs, 50, "us")
	count(m, "odg.affected_per_tx", ratio(int64(affected), int64(len(commits))), "count", len(commits))
}
