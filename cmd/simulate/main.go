// Command simulate runs the 16-day Olympic Games simulation and prints the
// paper's tables and figures (section 5 plus the quantitative claims of
// sections 2-4). Each experiment can be run alone:
//
//	simulate -experiment all        # everything below
//	simulate -experiment hitrate    # E1: DUP-update vs DUP-invalidate vs 1996-conservative
//	simulate -experiment daily      # E4/Figure 20: hits by day
//	simulate -experiment traffic    # E5/Figure 21: bytes by day
//	simulate -experiment hourly     # E3/Figure 18: hits by hour per complex
//	simulate -experiment response   # E6/Figure 22: response times by day/region
//	simulate -experiment geo        # E7/Figure 23: request breakdown by region
//	simulate -experiment table1     # E8/Table 1: response comparison, non-USA
//	simulate -experiment table2     # E9/Table 2: response comparison, USA
//	simulate -experiment peaks      # E10: peak minute, ski-jump Tokyo share
//	simulate -experiment cachemem   # E11: cache memory, every page resident
//	simulate -experiment failover   # E12: elegant degradation / availability
//	simulate -experiment redesign   # E13: 1996 vs 1998 navigation hits
//	simulate -experiment sessions   # §3.1 methodology: session traffic through the log analyzer
//	simulate -experiment freshness  # E16: update-to-visible latency, regen volume
//
// Chaos mode runs a fault-injection tournament against the live deployment
// instead of the discrete-event simulation:
//
//	simulate -chaos -seed 1 -rounds 5
//
// Each round arms one fault kind (replication partition, monitor crash,
// push failure, render error, node death), commits transactions through
// the window, clears the fault, and asserts convergence: zero lost
// transactions, zero stale pages, zero residual freshness-SLO violations.
// After the rounds, the overload scenario runs: a synthetic request flood
// at 5x estimated capacity asserting hits are always admitted, degraded
// responses never exceed the staleness budget, refusals stay bounded, and
// the plant reconverges and re-advertises. Output is deterministic for a
// given seed; the process exits non-zero if any invariant breaks.
//
// The overload scenario can also run alone:
//
//	simulate -overload -seed 1
//
// Both scenarios end with a consistency audit: every complex's auditor
// shadow-renders the full page set against its replica at a pinned LSN and
// verifies served bytes match, with zero incoherent pages and zero
// missing or superfluous ODG edges. The audit can also run standalone:
//
//	simulate -audit -seed 1
//
// Flight mode drives the anomaly flight recorder through one instance of
// each trigger condition (freshness-SLO violation, monitor crash, overload
// shed, audit-incoherent page) on a sequenced single-complex deployment and
// prints the dump inventory plus a digest of the canonical dump bytes,
// which is identical across runs with the same seed:
//
//	simulate -flight -seed 1
//
// Recovery mode drives one node through the full recovery protocol — kill,
// commits through the outage, warmup-gated readmission with a slow-start
// ramp, then a flap storm asserting exponentially growing quarantines —
// and a benchmark mode measures warm against cold readmission (MTTR and
// the post-rejoin miss storm) as JSON:
//
//	simulate -recovery -seed 1
//	simulate -recovery-bench BENCH_recovery.json
//
// Throughput, latency and freshness of the live plant are measured by the
// benchmark ledger (bash bench/run.sh, workloads declared in
// BENCHMARK.json), not by this command.
//
// Traffic runs at a configurable fraction of the paper's 634.7M hits
// (default 1/1000); printed hit figures are rescaled back to paper volume
// for side-by-side comparison.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"dupserve/internal/chaos"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/netsim"
	"dupserve/internal/routing"
	"dupserve/internal/sim"
	"dupserve/internal/site"
	"dupserve/internal/weblog"
	"dupserve/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run (see doc comment)")
	hits := flag.Int64("hits", 600_000, "total simulated hits across the games (paper: 634.7M)")
	seed := flag.Int64("seed", 1998, "random seed")
	small := flag.Bool("small", false, "use a small site (fast; for smoke runs)")
	verbose := flag.Bool("v", false, "per-day progress")
	csvDir := flag.String("csv", "", "also write each figure's series as CSV into this directory")
	chaosMode := flag.Bool("chaos", false, "run the fault-injection tournament (plus the overload scenario) instead of the simulation")
	rounds := flag.Int("rounds", 5, "fault rounds for -chaos")
	overloadMode := flag.Bool("overload", false, "run only the 5:1 overload scenario")
	auditMode := flag.Bool("audit", false, "run only the standalone consistency audit: commit results under load, converge, and shadow-render every page of every complex")
	flightMode := flag.Bool("flight", false, "run the flight-recorder scenario: provoke each anomaly trigger once and report the captured black-box dumps")
	recoveryMode := flag.Bool("recovery", false, "run the node-recovery scenario: kill a node, commit through the outage, readmit it through warmup + slow-start, then flap it and assert exponential damping")
	recoveryBench := flag.String("recovery-bench", "", "write the warm-vs-cold readmission benchmark as JSON to this file")
	flag.Parse()

	if *recoveryBench != "" {
		rep, err := chaos.BenchRecovery(chaos.RecoveryBenchConfig{Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "recovery-bench:", err)
			os.Exit(1)
		}
		f, err := os.Create(*recoveryBench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recovery-bench:", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "recovery-bench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "recovery-bench:", err)
			os.Exit(1)
		}
		warm, cold := rep.Modes[0], rep.Modes[1]
		if warm.PostRejoinMisses >= cold.PostRejoinMisses {
			fmt.Fprintf(os.Stderr, "recovery-bench: warm misses=%d not below cold misses=%d\n",
				warm.PostRejoinMisses, cold.PostRejoinMisses)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr,
			"recovery benchmark written to %s (warm misses=%d cold misses=%d reduction=%.0f%%)\n",
			*recoveryBench, warm.PostRejoinMisses, cold.PostRejoinMisses, rep.MissReductionPct)
		return
	}

	if *recoveryMode {
		res, err := chaos.RunRecovery(chaos.RecoveryConfig{Seed: *seed, Out: os.Stdout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "recovery:", err)
			os.Exit(1)
		}
		if !res.OK {
			os.Exit(1)
		}
		return
	}

	if *flightMode {
		res, err := chaos.RunFlight(chaos.FlightConfig{Seed: *seed, Out: os.Stdout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "flight:", err)
			os.Exit(1)
		}
		if !res.OK {
			os.Exit(1)
		}
		return
	}

	if *auditMode {
		res, err := chaos.RunAudit(chaos.AuditConfig{Seed: *seed, Out: os.Stdout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "audit:", err)
			os.Exit(1)
		}
		if !res.OK {
			os.Exit(1)
		}
		return
	}

	if *chaosMode || *overloadMode {
		ok := true
		if *chaosMode {
			res, err := chaos.Run(chaos.Config{Seed: *seed, Rounds: *rounds, Out: os.Stdout})
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaos:", err)
				os.Exit(1)
			}
			ok = ok && res.OK
		}
		ores, err := chaos.RunOverload(chaos.OverloadConfig{Seed: *seed, Out: os.Stdout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "overload:", err)
			os.Exit(1)
		}
		ok = ok && ores.OK
		if !ok {
			os.Exit(1)
		}
		return
	}

	cfg := sim.DefaultConfig()
	cfg.Seed = *seed
	cfg.TotalHits = *hits
	if *small {
		cfg.SiteSpec = site.Spec{
			Sports: 4, EventsPerSport: 6, Athletes: 400, Countries: 16,
			NewsStories: 60, Days: 16, EventsPerAthlete: 1, Languages: []string{"en", "ja"},
		}
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	needMain := map[string]bool{
		"all": true, "daily": true, "traffic": true, "hourly": true,
		"response": true, "geo": true, "peaks": true, "cachemem": true,
		"failover": true, "freshness": true, "redesign": true,
	}
	var res *sim.Result
	if needMain[*experiment] {
		fmt.Fprintf(os.Stderr, "running %d-day simulation (%d hits)...\n",
			cfg.SiteSpec.Days, cfg.TotalHits)
		var err error
		res, err = sim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "simulation complete in %v (%d pages)\n\n", res.WallClock.Round(time.Millisecond), res.PagesTotal)
	}

	if *csvDir != "" && res != nil {
		if err := writeCSVs(*csvDir, res); err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "CSV series written to %s\n", *csvDir)
	}

	switch *experiment {
	case "all":
		printHitRate(cfg)
		printDaily(res)
		printTraffic(res)
		printHourly(res)
		printResponse(res)
		printGeo(res)
		printTables()
		printPeaks(res)
		printCacheMem(res)
		printFailover(res)
		printRedesign(res)
		printSessions()
		printFreshness(res)
	case "hitrate":
		printHitRate(cfg)
	case "daily":
		printDaily(res)
	case "traffic":
		printTraffic(res)
	case "hourly":
		printHourly(res)
	case "response":
		printResponse(res)
	case "geo":
		printGeo(res)
	case "table1", "table2":
		printTables()
	case "peaks":
		printPeaks(res)
	case "cachemem":
		printCacheMem(res)
	case "failover":
		printFailover(res)
	case "redesign":
		printRedesign(res)
	case "sessions":
		printSessions()
	case "freshness":
		printFreshness(res)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func bar(v, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// printHitRate runs the three-policy comparison (E1) on a reduced site so
// the conservative policy's broad invalidation sweeps stay tractable.
func printHitRate(base sim.Config) {
	fmt.Println("== E1: cache hit rate by propagation policy (paper: ~100% with DUP update-in-place, ~80% for the 1996 conservative scheme) ==")
	cfg := base
	cfg.SiteSpec = site.Spec{
		Sports: 4, EventsPerSport: 6, Athletes: 600, Countries: 16,
		NewsStories: 60, Days: 8, EventsPerAthlete: 1, Languages: []string{"en"},
	}
	cfg.TotalHits = base.TotalHits / 4
	cfg.Frames, cfg.NodesPerFrame = 1, 2
	cfg.Failures = nil
	for _, policy := range []core.Policy{core.PolicyUpdateInPlace, core.PolicyHybrid, core.PolicyInvalidate, core.PolicyConservative} {
		c := cfg
		c.Policy = policy
		r, err := sim.Run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hitrate:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-22s hit rate %6.2f%%   (hits %d / misses %d, regens %d)\n",
			policy, 100*r.HitRate, r.DynamicHits, r.DynamicMisses, r.TotalRegens)
	}
	fmt.Println()
}

func printDaily(res *sim.Result) {
	fmt.Println("== E4 / Figure 20: hits by day (rescaled to paper volume, millions; paper peaks at 56.8M on day 7) ==")
	var max float64
	scaled := make([]float64, res.Days)
	for d, h := range res.HitsByDay {
		scaled[d] = float64(h) / res.Scale / 1e6
		if scaled[d] > max {
			max = scaled[d]
		}
	}
	var total float64
	for d, v := range scaled {
		fmt.Printf("  day %2d  %6.1fM  %s\n", d+1, v, bar(v, max, 40))
		total += v
	}
	fmt.Printf("  total   %6.1fM (paper: 634.7M)\n\n", total)
}

func printTraffic(res *sim.Result) {
	fmt.Println("== E5 / Figure 21: traffic by day (simulated page bytes, rescaled, GB) ==")
	var max float64
	scaled := make([]float64, res.Days)
	for d, b := range res.BytesByDay {
		scaled[d] = float64(b) / res.Scale / 1e9
		if scaled[d] > max {
			max = scaled[d]
		}
	}
	for d, v := range scaled {
		fmt.Printf("  day %2d  %7.1fGB  %s\n", d+1, v, bar(v, max, 40))
	}
	fmt.Println("  (shape tracks figure 21; absolute bytes reflect simulated page sizes, not 1998 image-heavy pages)")
	fmt.Println()
}

func printHourly(res *sim.Result) {
	fmt.Println("== E3 / Figure 18: average hits by hour of day (UTC) per complex ==")
	names := make([]string, 0, len(res.HourlyByComplex))
	for n := range res.HourlyByComplex {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		series := res.HourlyByComplex[name]
		var max float64
		for _, v := range series {
			if v > max {
				max = v
			}
		}
		fmt.Printf("  %s:\n", name)
		for h := 0; h < 24; h++ {
			fmt.Printf("    %02d:00  %7.0f  %s\n", h, series[h], bar(series[h], max, 30))
		}
	}
	fmt.Println()
}

func printResponse(res *sim.Result) {
	fmt.Println("== E6 / Figure 22: home-page response time by day, 28.8Kbps modem (seconds) ==")
	regions := []routing.Region{routing.RegionUS, routing.RegionJapan, routing.RegionEurope, routing.RegionAsia}
	fmt.Printf("  %-6s", "day")
	for _, r := range regions {
		fmt.Printf("%8s", r)
	}
	fmt.Println()
	for d := 0; d < res.Days; d++ {
		fmt.Printf("  %-6d", d+1)
		for _, r := range regions {
			fmt.Printf("%8.1f", res.ResponseByRegion[r][d])
		}
		fmt.Println()
	}
	fmt.Println("  (US days 7-9 blip from congestion external to the site, as in the paper)")
	fmt.Println()
}

func printGeo(res *sim.Result) {
	fmt.Println("== E7 / Figure 23: request breakdown by geographic location ==")
	var total int64
	for _, v := range res.GeoBreakdown {
		total += v
	}
	regions := []routing.Region{routing.RegionUS, routing.RegionJapan, routing.RegionEurope, routing.RegionAsia, routing.RegionOther}
	for _, r := range regions {
		v := res.GeoBreakdown[r]
		pct := 100 * float64(v) / float64(total)
		fmt.Printf("  %-8s %6.1f%%  %s\n", r, pct, bar(pct, 50, 40))
	}
	fmt.Println("\n  served by complex:")
	names := make([]string, 0, len(res.ComplexBreakdown))
	for n := range res.ComplexBreakdown {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.ComplexBreakdown[n]
		fmt.Printf("  %-12s %6.1f%%\n", n, 100*float64(v)/float64(total))
	}
	fmt.Println()
}

// competitorSites models tables 1 and 2: the Olympics site serves cached
// pages (near-zero server time, well-provisioned path); conventional ISP
// home pages of the era generated content per request and sat on more
// congested paths.
func competitorSites() (nonUSA, usa []netsim.SiteProfile) {
	oly := func(name string) netsim.SiteProfile {
		return netsim.SiteProfile{Name: name, Page: netsim.HomePage1998(), ServerTime: 2 * time.Millisecond, PathCongestion: 1.0}
	}
	nonUSA = []netsim.SiteProfile{
		{Name: "Japan-Nifty", Page: netsim.PageSpec{Bytes: 46 * 1024, Objects: 9}, ServerTime: 40 * time.Millisecond, PathCongestion: 1.05},
		oly("Japan-Olympics"),
		{Name: "AUS-OZMAIL", Page: netsim.PageSpec{Bytes: 52 * 1024, Objects: 14}, ServerTime: 150 * time.Millisecond, PathCongestion: 1.45},
		{Name: "AUS-Olympics", Page: netsim.HomePage1998(), ServerTime: 2 * time.Millisecond, PathCongestion: 1.28},
		{Name: "UK-DEMON", Page: netsim.PageSpec{Bytes: 44 * 1024, Objects: 8}, ServerTime: 60 * time.Millisecond, PathCongestion: 1.02},
		{Name: "UK-Olympics", Page: netsim.HomePage1998(), ServerTime: 2 * time.Millisecond, PathCongestion: 1.12},
	}
	usa = []netsim.SiteProfile{
		oly("USA-Olympics"),
		{Name: "Compuserve", Page: netsim.PageSpec{Bytes: 47 * 1024, Objects: 10}, ServerTime: 35 * time.Millisecond, PathCongestion: 1.05},
		{Name: "AOL", Page: netsim.PageSpec{Bytes: 55 * 1024, Objects: 16}, ServerTime: 90 * time.Millisecond, PathCongestion: 1.2},
		{Name: "MSN", Page: netsim.PageSpec{Bytes: 49 * 1024, Objects: 12}, ServerTime: 55 * time.Millisecond, PathCongestion: 1.1},
		{Name: "NETCOM", Page: netsim.PageSpec{Bytes: 48 * 1024, Objects: 11}, ServerTime: 45 * time.Millisecond, PathCongestion: 1.08},
		{Name: "AT&T", Page: netsim.PageSpec{Bytes: 48 * 1024, Objects: 11}, ServerTime: 45 * time.Millisecond, PathCongestion: 1.07},
	}
	return nonUSA, usa
}

func printTables() {
	nonUSA, usa := competitorSites()
	modem := netsim.Modem288()
	print := func(title string, sites []netsim.SiteProfile) {
		fmt.Println(title)
		fmt.Printf("  %-16s %18s %18s\n", "Site", "Mean resp (s)", "Transmit (Kbps)")
		for i, s := range sites {
			// 48 probes over the measurement day, as the paper's team did.
			m := netsim.MeasureSamples(modem, s, 48, 0.12, int64(100+i))
			fmt.Printf("  %-16s %11.2f +-%4.2f %18.2f\n", m.Site, m.MeanResponse, m.StdDev, m.TransmitRate)
		}
		fmt.Println()
	}
	print("== E8 / Table 1: response comparison, non-USA sites (28.8Kbps modem; paper: Olympics 16-29s, 17-26Kbps) ==", nonUSA)
	print("== E9 / Table 2: response comparison, USA sites (paper: Olympics 18.26s at 23.31Kbps, fastest of the six) ==", usa)
}

func printPeaks(res *sim.Result) {
	fmt.Println("== E10: peak request rates ==")
	pm := res.PeakMinute
	rescaled := float64(pm.Hits) / res.Scale
	fmt.Printf("  peak minute: day %d %02d:%02d UTC, %d simulated hits (~%.0f at paper volume; paper: 110,414 during day-14 figure skating)\n",
		pm.Day, pm.Hour, pm.Minute, pm.Hits, rescaled)
	fmt.Printf("  ski-jump spike (day 10): busiest minute %d hits (~%.0f at paper volume; paper: 98,000)\n",
		res.SkiJumpMinuteHits, float64(res.SkiJumpMinuteHits)/res.Scale)
	fmt.Printf("  share of that hour served by Tokyo: %.0f%% (paper: 72k of 98k = 73%%)\n\n", 100*res.SkiJumpTokyoShare)
}

func printCacheMem(res *sim.Result) {
	fmt.Println("== E11: cache memory ==")
	fmt.Printf("  single copy of all cached objects: %.1f MB peak across %d objects (paper: ~175MB; our pages are text-only)\n",
		float64(res.CachePeakBytesSingle)/1e6, res.CacheItemsSingle)
	if res.CacheItemsSingle >= res.PagesTotal {
		fmt.Printf("  all %d pages resident in an unbounded cache (paper: replacement never needed)\n\n", res.PagesTotal)
	} else {
		fmt.Printf("  %d of %d pages resident (paper: replacement never needed)\n\n", res.CacheItemsSingle, res.PagesTotal)
	}
}

func printFailover(res *sim.Result) {
	fmt.Println("== E12: availability under failure injection (node, frame, complex outages scheduled) ==")
	fmt.Printf("  availability: %.2f%% of sampled hours (paper: 100%%)\n", 100*res.Availability)
	fmt.Printf("  distinct outages observed by clients: %d\n", res.Outages)
	fmt.Printf("  rejected requests: %d of %d\n\n", res.Rejected, sumInt64(res.HitsByDay)+res.Rejected)
}

func printRedesign(res *sim.Result) {
	fmt.Println("== E13: 1996 hierarchy vs 1998 day-home-page design ==")
	cfg := workload.DefaultNavConfig()
	h96 := cfg.HitsPerVisit(workload.Design1996)
	h98 := cfg.HitsPerVisit(workload.Design1998)
	fmt.Printf("  analytic model:    1996 %.2f hits/visit, 1998 %.2f (ratio %.2fx)\n", h96, h98, h96/h98)

	// Monte Carlo over simulated user sessions navigating both structures.
	nav := workload.DefaultNavSimConfig()
	rng := rand.New(rand.NewSource(98))
	s96 := nav.SimulateVisits(workload.Design1996, 100_000, rng)
	s98 := nav.SimulateVisits(workload.Design1998, 100_000, rng)
	fmt.Printf("  session simulation: 1996 %.2f hits/visit (max %d), 1998 %.2f (ratio %.2fx)\n",
		s96.MeanHits, s96.MaxHits, s98.MeanHits, s96.MeanHits/s98.MeanHits)
	fmt.Printf("  1998 goals answered on the home page: %.0f%% of visits (paper: over 25%%)\n",
		100*float64(s98.HomeAnswered)/float64(s98.Visits))
	fmt.Printf("  1996 medal questions requiring hand-tallying event pages: %d (1998: %d — collation removed them)\n",
		s96.HandTallies, s98.HandTallies)

	var peak int64
	for _, h := range res.HitsByDay {
		if h > peak {
			peak = h
		}
	}
	observed := int64(float64(peak) / res.Scale)
	fmt.Printf("  observed peak day (rescaled): %dM hits; projected under 1996 design: %dM (paper: 56.8M observed vs >200M projected)\n\n",
		observed/1e6, cfg.ProjectedDailyHits(observed)/1e6)
}

func printFreshness(res *sim.Result) {
	fmt.Println("== E16: page regeneration volume and freshness ==")
	var max, sum int64
	for _, x := range res.RegenByDay {
		sum += x
		if x > max {
			max = x
		}
	}
	fmt.Printf("  pages regenerated: total %d, mean %.0f/day, peak %d/day (paper: avg 20k/day, peak 58k/day)\n",
		sum, float64(sum)/float64(res.Days), max)
	fmt.Printf("  update-to-visible latency: mean %.1fs, max %.1fs (paper bound: 60s)\n\n",
		res.FreshnessMeanSec, res.FreshnessMaxSec)
}

func sumInt64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// writeCSVs dumps the main run's series for external plotting: one file per
// figure.
func writeCSVs(dir string, res *sim.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, header string, rows func(w *os.File) error) error {
		f, err := os.Create(dir + "/" + name)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := fmt.Fprintln(f, header); err != nil {
			return err
		}
		return rows(f)
	}
	if err := write("fig20_hits_by_day.csv", "day,hits,rescaled_millions", func(f *os.File) error {
		for d, h := range res.HitsByDay {
			if _, err := fmt.Fprintf(f, "%d,%d,%.2f\n", d+1, h, float64(h)/res.Scale/1e6); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := write("fig21_bytes_by_day.csv", "day,bytes", func(f *os.File) error {
		for d, b := range res.BytesByDay {
			if _, err := fmt.Fprintf(f, "%d,%d\n", d+1, b); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := write("fig18_hourly_by_complex.csv", "complex,hour,avg_hits", func(f *os.File) error {
		names := make([]string, 0, len(res.HourlyByComplex))
		for n := range res.HourlyByComplex {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			series := res.HourlyByComplex[n]
			for h := 0; h < 24; h++ {
				if _, err := fmt.Fprintf(f, "%s,%d,%.2f\n", n, h, series[h]); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := write("fig22_response_by_day.csv", "region,day,seconds", func(f *os.File) error {
		for _, r := range []routing.Region{routing.RegionUS, routing.RegionJapan, routing.RegionEurope, routing.RegionAsia, routing.RegionOther} {
			for d, v := range res.ResponseByRegion[r] {
				if _, err := fmt.Fprintf(f, "%s,%d,%.2f\n", r, d+1, v); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return write("fig23_geo_breakdown.csv", "region,hits", func(f *os.File) error {
		for _, r := range []routing.Region{routing.RegionUS, routing.RegionJapan, routing.RegionEurope, routing.RegionAsia, routing.RegionOther} {
			if _, err := fmt.Fprintf(f, "%s,%d\n", r, res.GeoBreakdown[r]); err != nil {
				return err
			}
		}
		return nil
	})
}

// printSessions replays the paper's methodology end to end: generate
// correlated user sessions against the 1998 structure, log them through
// the access-log writer, and read back the same analysis the team ran on
// the 1996 logs. The reconstruction must recover the session model's
// parameters — the loop from traffic to design insight, closed.
func printSessions() {
	fmt.Println("== §3.1 methodology: session traffic through the access-log analyzer ==")
	// Only the page structure matters here: no engine, no caches.
	st, err := site.Build(site.DefaultSpec(), db.New("sessions"), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessions:", err)
		os.Exit(1)
	}
	model := workload.New(workload.Config{Seed: 13, TotalHits: 1}, st)

	w := weblog.NewWriter(nil)
	base := time.Date(1998, 2, 8, 0, 0, 0, 0, time.UTC)
	tick := 0
	w.SetClock(func() time.Time { tick++; return base.Add(time.Duration(tick) * 2 * time.Second) })
	rng := rand.New(rand.NewSource(13))
	const visits = 20000
	for v := 0; v < visits; v++ {
		// Distinct clients so the analyzer separates visits; each client
		// browses one session.
		client := fmt.Sprintf("10.%d.%d.%d", v>>16&0xff, v>>8&0xff, v&0xff)
		for _, p := range model.SampleSession(rng, 2, model.SampleRegion(rng)) {
			w.Log(client, p, 200, 1800)
		}
	}
	rep := w.Report(5)
	fmt.Printf("  sessions generated: %d (%d page fetches)\n", visits, rep.Entries)
	fmt.Printf("  analyzer reconstruction: %.2f hits/visit, %.0f%% satisfied at the entry page (paper: over 25%%)\n",
		rep.HitsPerVisit, 100*rep.EntrySatisfied)
	fmt.Printf("  top pages:\n")
	for _, pc := range rep.TopPages {
		fmt.Printf("    %-36s %7d\n", pc.Path, pc.Hits)
	}
	fmt.Println()
}
