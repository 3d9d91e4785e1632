package main

import (
	"math"
	"sort"
)

// beyond is how many samples must lie past a reported percentile: a tail
// read off fewer is one or two outliers, not a property of the system.
const beyond = 10

// percentileLadder is tried top down when a sample is too small for the
// percentile a metric is named after.
var percentileLadder = []float64{99, 95, 90, 75, 50}

// supportedPercentile returns the highest percentile on the ladder, at most
// want, that leaves at least `beyond` of n samples past it. With fewer than
// 2*beyond samples nothing but the median is left.
func supportedPercentile(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p <= want && n-rank(n, p) >= beyond {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The product comes first so that whole percentiles of whole counts stay
// exact in floating point.
func rank(n int, p float64) int {
	return int(math.Ceil(p * float64(n) / 100))
}

// dist is a sample of one timing, sorted on first use.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) { d.xs = append(d.xs, x); d.sorted = false }
func (d *dist) n() int        { return len(d.xs) }

// at returns the nearest-rank p-th percentile, 0 for an empty sample.
func (d *dist) at(p float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	i := rank(len(d.xs), p)
	if i < 1 {
		i = 1
	}
	return d.xs[i-1]
}

// tail returns the value at the highest supported percentile not above want
// and that percentile, so a short run reports p90 under a p99 name openly
// (the row carries the percentile used) instead of quoting its maximum.
func (d *dist) tail(want float64) (value, used float64) {
	used = supportedPercentile(len(d.xs), want)
	return d.at(used), used
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which is
// what the driver uses to judge a metric's spread.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// CPython's integer arithmetic, kept as is so both sides agree to
		// the last digit.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
