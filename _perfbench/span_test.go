package main

import (
	"math"
	"testing"
)

// TestSelfTimes checks the self-time arithmetic on a synthetic tree:
//
//	root [0,100)
//	├── a [10,40)        ── a1 [15,25)   (grandchild: counts for a only)
//	├── b [30,60)        (overlaps a on [30,40): covered once)
//	├── agg  busy 15 over [60,95), 3 calls
//	└── c [120,130)      (outside root's interval: clipped away)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "a1", Parent: 1, Start: 15, End: 25},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "agg", Parent: 0, Start: 60, End: 95, Agg: true, Busy: 15, Calls: 3, OK: 2},
		{Name: "c", Parent: 0, Start: 120, End: 130},
	}
	got := selfTimes(spans)
	// root: 100 - union(a, b) 50 - agg 15 = 35
	// a: 30 - 10 = 20; a1: 10; b: 30; agg: 15; c: 10
	want := []int64{35, 20, 10, 30, 15, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	lt := layerTotals(spans)
	if a := lt["agg"]; a.calls != 3 || a.ok != 2 || a.self != 15 {
		t.Errorf("agg totals = %+v", a)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {9, 12}}, 12},
		{[][2]int64{{0, 10}, {10, 20}}, 20},
		{[][2]int64{{5, 5}, {7, 6}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.ivs); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

// TestTracerNesting: spans opened inside another become its children;
// callbacks fold into one aggregate span per parent and name.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	child := tr.begin("child")
	tr.end(child)
	for i := 0; i < 4; i++ {
		tr.record("cb", tr.call(), i%2 == 0)
	}
	tr.end(root)
	if len(tr.spans) != 3 {
		t.Fatalf("spans = %+v, want root, child and one aggregate", tr.spans)
	}
	if tr.spans[1].Parent != root || tr.spans[2].Parent != root {
		t.Errorf("parents = %d, %d; want %d", tr.spans[1].Parent, tr.spans[2].Parent, root)
	}
	if a := tr.spans[2]; !a.Agg || a.Calls != 4 || a.OK != 2 {
		t.Errorf("aggregate = %+v, want 4 calls, 2 ok", a)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x"))
	nilTracer.record("x", nilTracer.call(), true)
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(xs, n=4), the method the spread is judged by.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
