package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // exactly ten beyond p99
		{999, 90, true},  // 9.99 beyond p99: falls back
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n, 50, 90, 99)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestGeoMeanOfMedians(t *testing.T) {
	got := geoMeanOfMedians(map[string][]float64{
		"a": {1, 2, 100}, // median 2
		"b": {8},
		"c": {0}, // skipped
	})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("geoMeanOfMedians = %v, want 4", got)
	}
	if !math.IsNaN(geoMeanOfMedians(nil)) {
		t.Error("no types should give NaN")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "workload", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Start: at(1), End: at(3)},
		{ID: 3, Parent: 1, Start: at(2), End: at(5)},  // overlaps span 2
		{ID: 4, Parent: 1, Start: at(8), End: at(12)}, // runs past its parent
		{ID: 5, Parent: 3, Start: at(2), End: at(4)},  // grandchild: not the workload's
	}
	self := selfTimes(spans)
	// workload: 10 ms minus the union [1,5) ∪ [8,10) = 6 ms.
	want := []time.Duration{4, 2, 1, 4, 2}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d self = %v, want %v", i+1, self[i], w*time.Millisecond)
		}
	}
}

func TestLatenessFromDueTime(t *testing.T) {
	t0 := time.Unix(100, 0)
	due := []time.Time{t0, t0.Add(time.Millisecond), t0.Add(2 * time.Millisecond)}
	dispatched := []time.Time{t0.Add(3 * time.Millisecond), t0, t0.Add(2 * time.Millisecond)}
	got := lateness(due, dispatched)
	want := []float64{3e6, 0, 0} // early dispatch is not negative lateness
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lateness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
