package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is one or two outliers.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile applies the reporting rule for tails: of the candidate
// percentiles (ascending, in percent), return the highest that still has
// at least minBeyond of n samples above it, and ok=false when none has.
func tailPercentile(n int, candidates ...float64) (p float64, ok bool) {
	for _, c := range candidates {
		if float64(n)*(100-c)/100 >= minBeyond {
			p, ok = c, true
		}
	}
	return p, ok
}

// tail reports xs at the highest of the candidate percentiles the sample
// supports (see tailPercentile). ok is false when the sample is too small
// for any of them.
func tail(xs []float64, candidates ...float64) (v, p float64, ok bool) {
	p, ok = tailPercentile(len(xs), candidates...)
	if !ok {
		return math.NaN(), 0, false
	}
	return quantile(xs, p/100), p, true
}

// geoMeanOfMedians summarises latencies of several operation types: the
// median of each type, then the geometric mean across types, so every
// type weighs the same whatever its size and no single one sets the
// figure. Types with no positive median are skipped.
func geoMeanOfMedians(byType map[string][]float64) float64 {
	logSum, n := 0.0, 0
	for _, xs := range byType {
		if m := median(xs); m > 0 {
			logSum += math.Log(m)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}

// intervalUnion returns the total length covered by the union of the
// half-open intervals [s, e), clipped to [lo, hi).
func intervalUnion(lo, hi float64, ivs [][2]float64) float64 {
	clipped := make([][2]float64, 0, len(ivs))
	for _, iv := range ivs {
		s, e := math.Max(iv[0], lo), math.Min(iv[1], hi)
		if e > s {
			clipped = append(clipped, [2]float64{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	total, curS, curE := 0.0, math.Inf(-1), math.Inf(-1)
	for _, iv := range clipped {
		if iv[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv[0], iv[1]
			continue
		}
		curE = math.Max(curE, iv[1])
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}
