package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// child runs one workload once in a fresh process, exactly as the driver
// does, and returns the full record that run wrote. A run whose operations
// failed still returns its record; any other failure is an error.
func child(workload string, seed int64, seconds int, traced bool, out string) (*runFile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", t, "--out", out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
	}
	buf, err := os.ReadFile(runFileName(out, workload, traced))
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(buf, &rf); err != nil {
		return nil, err
	}
	return &rf, nil
}

type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n,omitempty"`
	Pct      float64 `json:"pct,omitempty"`
	Traced   bool    `json:"traced"`
}

func rows(workload string, traced bool, metrics map[string]metric) []row {
	var out []row
	for name, m := range metrics {
		out = append(out, row{workload, name, m.Value, m.Unit, m.N, m.Pct, traced})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

func printRows(rs []row) {
	for _, r := range rs {
		extra := ""
		if r.N > 0 {
			extra = fmt.Sprintf("  n=%d", r.N)
		}
		if r.Pct > 0 {
			extra += fmt.Sprintf("  p%g", r.Pct)
		}
		fmt.Printf("%-13s %-28s %14.4f %-6s%s\n", r.Workload, r.Metric, r.Value, r.Unit, extra)
	}
}

// primary is the end-to-end metric the tracing overhead of a workload is
// read off.
var primary = map[string]string{
	"serve_hot": "serve_rps", "update_burst": "propagate_pages_per_s",
	"mixed_live": "serve_rps", "wire_live": "serve_rps",
}

// suite runs every selected workload untraced and traced and prints one row
// per workload and metric.
func suite(selected []workloadSpec, seed int64, seconds int, out string) int {
	var all []row
	overhead := map[string]float64{}
	var failed int64
	unreconciled := 0
	var env environment
	for _, w := range selected {
		plain, err := child(w.name, seed, seconds, false, out)
		var traced *runFile
		if err == nil {
			traced, err = child(w.name, seed, seconds, true, out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		env = plain.Env
		failed += plain.Failed + traced.Failed
		rs := append(rows(w.name, false, plain.EndToEnd), rows(w.name, true, traced.PerLayer)...)
		printRows(rs)
		all = append(all, rs...)

		name := primary[w.name]
		u, t := plain.EndToEnd[name], traced.EndToEnd[name]
		worse := (t.Value - u.Value) / u.Value
		if u.Unit == "1/s" {
			worse = -worse
		}
		overhead[w.name] = worse * 100
		unreconciled += warnGaps(w.name, traced.PerLayer)
		fmt.Printf("%-13s %-28s %14.4f %-6s  on %s\n", w.name, "trace_overhead_pct", worse*100, "%", name)
	}
	err := writeJSON(filepath.Join(out, "result.json"), map[string]any{
		"environment": env, "rows": all, "trace_overhead_pct": overhead, "failed": failed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if failed > 0 || unreconciled > 0 {
		return 1
	}
	return 0
}

// warnGaps prints each budget whose layer medians do not sum to within
// reconcileBound of the end-to-end median, and returns how many there were.
// The suite fails on one; a single run only says so, because its verdict is
// about the system's outputs, not about the measurement.
func warnGaps(workload string, perLayer map[string]metric) int {
	n := 0
	for _, name := range []string{"serve_gap_pct", "fresh_gap_pct"} {
		if g := perLayer[name].Value; g > reconcileBound*100 {
			fmt.Fprintf(os.Stderr, "bench: %s: %s is %.1f%%: the layer medians do not reconcile with the end-to-end median within %.0f%%\n",
				workload, name, g, reconcileBound*100)
			n++
		}
	}
	return n
}

// declared is the part of BENCHMARK.json the self-check reads.
type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck is the A/A mode: the same code, k runs of every workload, each
// with another seed as the driver does it. A metric whose interquartile
// spread exceeds its own bound cannot tell a regression from noise, and the
// check fails. setup_s is exempt, as it is for the driver, which judges it
// by its median alone.
func selfCheck(selected []workloadSpec, k int, seed int64, seconds int, out string) int {
	buf, err := os.ReadFile("BENCHMARK.json")
	var decl declared
	if err == nil {
		err = json.Unmarshal(buf, &decl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: the self-check runs from the repository root:", err)
		return 2
	}
	type cell struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Q1       float64   `json:"q1"`
		Median   float64   `json:"median"`
		Q3       float64   `json:"q3"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
		Within   bool      `json:"within_bound"`
	}
	var cells []cell
	var env environment
	bad := 0
	for _, w := range selected {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			rf, err := child(w.name, seed+int64(i), seconds, false, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			if rf.Failed > 0 {
				bad++
			}
			env = rf.Env
			for name, m := range rf.EndToEnd {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range decl.EndToEnd {
			q1, med, q3 := quartiles(values[d.Name])
			c := cell{w.name, d.Name, d.Unit, values[d.Name], q1, med, q3, ratioF(q3-q1, med), d.Bound, true}
			if c.Spread > d.Bound && d.Name != "setup_s" {
				c.Within = false
				bad++
			}
			cells = append(cells, c)
			fmt.Printf("%-13s %-24s median %12.4f %-6s q1 %12.4f q3 %12.4f spread %6.2f%% bound %4.0f%% %s\n",
				c.Workload, c.Metric, c.Median, c.Unit, c.Q1, c.Q3, c.Spread*100, c.Bound*100, verdict(c.Within))
		}
	}
	env.Seed = seed
	if err := writeJSON(filepath.Join(out, "aa.json"), map[string]any{"environment": env, "runs": k, "cells": cells}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "TOO WIDE"
}
