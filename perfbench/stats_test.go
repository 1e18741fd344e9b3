package main

import (
	"math"
	"repro/internal/sim"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.5, 1},
		{4, 0.5, 2},
		{5, 0.5, 3},
		{100, 0.9, 90},
		{1000, 0.99, 990},
		{1009, 0.99, 999},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v", c.n, c.p, got, err, c.want)
		}
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 0.9, true}, // rank 90, 10 beyond
		{99, 0.9, false}, // rank 90, 9 beyond
		{1000, 0.99, true},
		{999, 0.99, false},
		{3, 0.5, true}, // the median has no tail rule
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, p=%v): err = %v, want ok=%v", c.n, c.p, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "beyond") {
			t.Errorf("percentile(n=%d, p=%v): error %q does not explain the rule", c.n, c.p, err)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

// gaze_speedup_geomean is the geometric mean of the per-trace IPC
// speedups of Gaze over none; accuracy and coverage are plain means; an
// unreproducible prefetcher's cells never enter the reference set.
func TestRefSetGazeFigures(t *testing.T) {
	core := func(ipc float64, useful, useless, covered uint64) sim.Result {
		c := sim.CoreResult{IPC: ipc}
		c.L1D.UsefulPrefetches, c.L1D.UselessPrefetches, c.L1D.CoveredMisses = useful, useless, covered
		return sim.Result{Cores: []sim.CoreResult{c}}
	}
	r := make(refSet)
	r.add("a", "none", core(1, 0, 0, 0))
	r.add("a", "Gaze", core(2, 3, 1, 1)) // speedup 2, accuracy 0.75
	r.add("b", "none", core(2, 0, 0, 0))
	r.add("b", "Gaze", core(16, 1, 1, 1)) // speedup 8, accuracy 0.5
	for pf := range unreproducible {
		r.add("a", pf, core(3, 1, 0, 0))
	}
	g, err := r.gaze()
	if err != nil {
		t.Fatal(err)
	}
	if got := g["gaze_speedup_geomean"]; math.Abs(got-4) > 1e-12 {
		t.Errorf("gaze_speedup_geomean = %v, want 4", got)
	}
	if got := g["gaze_accuracy"]; math.Abs(got-0.625) > 1e-12 {
		t.Errorf("gaze_accuracy = %v, want 0.625", got)
	}
	for pf := range unreproducible {
		if _, ok := r["a"][pf]; ok {
			t.Errorf("unreproducible %s cell entered the reference set", pf)
		}
	}
	delete(r["b"], "none")
	if _, err := r.gaze(); err == nil {
		t.Error("reference trace without its none cell accepted")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2, 5, 4}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 10, 10, 10}, 10, 10},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 32},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample succeeded")
	}
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v", s, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestLayerSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "engine.run_all", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "engine.read", Start: 50, End: 70}, // overlaps 2
		{ID: 4, Parent: 2, Name: "sim.advance", Start: 20, End: 30},
	}
	self, roots := layerSelf(spans)
	if roots != 100 {
		t.Errorf("root time = %v, want 100", roots)
	}
	// bench: 100 - union(10..70) = 40; engine: (50-10) + 20 = 60; sim: 10.
	for layer, want := range map[string]int64{"bench": 40, "engine": 60, "sim": 10} {
		if int64(self[layer]) != want {
			t.Errorf("self[%s] = %d, want %d", layer, self[layer], want)
		}
	}
}
