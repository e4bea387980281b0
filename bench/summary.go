package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median with its quartiles,
// the extremes and the sample count, plus the highest percentile that still
// has at least ten samples beyond it (absent when the run is too short to
// support one above the median).
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// TailP is the percentile (e.g. 90) and Tail its value; TailP is 0
	// when fewer than ten samples lie beyond every percentile above 50.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// summarize folds samples into a summary. Quartiles follow Python's
// statistics.quantiles(xs, n=4) (the exclusive method), because the
// benchmark's acceptance rule is stated in those terms.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Min: s[0], Max: s[len(s)-1]}
	out.Q1, out.Median, out.Q3 = quantile(s, 1), quantile(s, 2), quantile(s, 3)
	for _, p := range tailPercentiles {
		beyond := int(math.Floor(float64(len(s)) * (100 - p) / 100))
		if beyond >= 10 {
			out.TailP, out.Tail = p, s[len(s)-1-beyond]
			break
		}
	}
	return out
}

// quantile returns the i-th quartile cut point (i in 1..3) of sorted data
// by the exclusive method: position i*(n+1)/4, linearly interpolated
// between the two neighbours, the index clamped to the data as Python does.
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := i*(n+1) - j*4
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// spread is the distance between the quartiles as a share of the median —
// the run-to-run noise figure a bound is judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// medianSpread estimates the quartile spread of the median itself across
// repeated runs, from one run's samples: a median of n samples spreads about
// 1.25/sqrt(n) as wide as the samples do (normal approximation). It is the
// noise figure for comparing two medians. With fewer than five samples the
// quartiles are just the extremes and nothing can be said: it returns 0.
func (s summary) medianSpread() float64 {
	if s.N < 5 {
		return 0
	}
	return 1.2533 * s.spread() / math.Sqrt(float64(s.N))
}

// median is summarize(xs).Median for callers that need only that.
func median(xs []float64) float64 { return summarize(xs).Median }
