package main

import (
	"math"
	"sort"
	"time"
)

// samples is the benchmark's own exact sample list. Every timing the
// benchmark reports is read off one of these by nearest rank; nothing is
// taken from engine/metrics.Summary, whose percentiles are the upper
// edges of power-of-two buckets.
type samples []float64

func (s *samples) add(v float64)                { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration)       { *s = append(*s, float64(d)) }
func (s samples) sorted() samples               { c := append(samples(nil), s...); sort.Float64s(c); return c }
func ms(ns float64) float64                     { return ns / 1e6 }
func us(ns float64) float64                     { return ns / 1e3 }
func perSec(n float64, d time.Duration) float64 { return n / d.Seconds() }

// pct is the exact nearest-rank percentile of a sorted list: the smallest
// value with at least p percent of the samples at or below it. Zero for an
// empty list.
func pct(sorted samples, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// rankOf is the nearest rank of percentile p among n samples. The
// product is taken in whole thousandths of a percent: 99.9/100×10000 is
// 9990.000000000002 in floating point, and its ceiling is off by one.
func rankOf(p float64, n int) int {
	return int((int64(math.Round(p*1000))*int64(n) + 99_999) / 100_000)
}

// tailLadder is the set of percentiles a timing may be summarised at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// highestPct returns the highest percentile of the ladder that still has
// at least ten samples beyond it, and whether any rung qualifies. A tail
// read from fewer samples than that is one slow request, not a
// distribution.
func highestPct(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

func mean(s samples) float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// spread summarises repeated runs of one metric the way the acceptance
// rule does: median, quartiles (exclusive method, as Python's
// statistics.quantiles(values, n=4)) and the inter-quartile distance as a
// share of the median.
type spread struct {
	Median, Q1, Q3, Share float64
}

func spreadOf(values []float64) spread {
	s := samples(values).sorted()
	n := len(s)
	if n == 0 {
		return spread{}
	}
	if n == 1 {
		return spread{Median: s[0], Q1: s[0], Q3: s[0]}
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	sp := spread{Median: q(2), Q1: q(1), Q3: q(3)}
	if sp.Median != 0 {
		sp.Share = (sp.Q3 - sp.Q1) / math.Abs(sp.Median)
	}
	return sp
}
