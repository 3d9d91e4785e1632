// Command bench is the repository's benchmark: it assembles a paper-scale
// plant, drives one of four workloads against it from this one process, and
// reports the serve and freshness budgets end to end and layer by layer.
//
//	bash bench/run.sh --workload mixed_live --seed 1 --seconds 20 --trace 0
//	    one run; the last line of standard output is the result as JSON
//	bash bench/run.sh [--workload name] [--seed n]
//	    every workload untraced and traced, one row per metric, result.json
//	bash bench/run.sh --aa 3
//	    the suite's untraced runs 3 times; spreads against BENCHMARK.json
//
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dupserve/internal/site"
)

const (
	warmup = 2 * time.Second
	setups = 5
)

// environment heads every file the bench writes.
type environment struct {
	Commit     string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Generators int     `json:"max_generators"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
	Setups     int     `json:"setups_per_run"`
	Pages      string  `json:"site"`
	Transport  string  `json:"transport"`
}

func describe(seed int64, window time.Duration) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Generators: 2,
		Seed: seed, WarmupS: warmup.Seconds(), WindowS: window.Seconds(), Setups: setups,
		Pages:     "site.PaperSpec(), 4 serving nodes",
		Transport: "loopback TCP, not a real link",
	}
}

// runFile is the full record of one run, written beside the strict result
// line so the suite can show sample counts and what failed.
type runFile struct {
	Env      environment `json:"environment"`
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	result
}

func runFileName(out, workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(out, "run_"+workload+"_"+kind+".json")
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// single is the driver's contract: one workload, one run, and as the last
// line of standard output one JSON object with the run's verdict and either
// the end-to-end or the per-layer metrics.
func single(w workloadSpec, seed int64, window time.Duration, traced bool, out string) int {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res, err := runWorkload(runConfig{
		w: w, spec: site.PaperSpec(), seed: seed,
		warmup: warmup, window: window, setups: setups, trace: traced, outDir: out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := writeJSON(runFileName(out, w.name, traced), runFile{describe(seed, window), w.name, traced, *res}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench: failed:", p)
	}
	shown := res.EndToEnd
	if traced {
		shown = res.PerLayer
		warnGaps(w.name, res.PerLayer)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, m := range shown {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all): "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the request mix and the transaction sequence")
	seconds := flag.Int("seconds", 20, "measured window, seconds")
	trace := flag.Int("trace", 0, "given: one run, 0 untraced with the end-to-end metrics, 1 traced with the per-layer metrics")
	out := flag.String("out", "bench/out", "directory for result and span files")
	aa := flag.Int("aa", 0, "run the untraced suite this many times and judge each metric's spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		selected = []workloadSpec{w}
	}
	oneRun := false
	flag.Visit(func(f *flag.Flag) { oneRun = oneRun || f.Name == "trace" })

	switch {
	case *aa > 0:
		os.Exit(selfCheck(selected, *aa, *seed, *seconds, *out))
	case oneRun && len(selected) == 1:
		os.Exit(single(selected[0], *seed, window, *trace == 1, *out))
	case oneRun:
		fmt.Fprintln(os.Stderr, "bench: --trace asks for one run and needs --workload")
		os.Exit(2)
	default:
		os.Exit(suite(selected, *seed, *seconds, *out))
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
