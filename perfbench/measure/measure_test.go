package measure

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // two values extrapolate
		{[]float64{5, 1, 9}, 1, 5, 9},
	}
	for _, c := range cases {
		q1, m, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 5.5/5.5) {
		t.Errorf("Spread = %v, want 1", s)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true}, // 99.9 leaves 9.999 beyond
		{1000, 99, true},
		{999, 98, true},
		{200, 95, true},
		{100, 90, true},
		{50, 80, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	}
	for _, c := range cases {
		got, ok := HighestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("HighestPercentile(%d) = %v %v, want %v %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if !Supports(1000, 99) || Supports(999, 99) {
		t.Error("Supports disagrees with the ten-beyond rule at p99")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{0, 10, 20, 30}
	if q := Quantile(s, 0.5); !near(q, 15) {
		t.Errorf("median = %v, want 15", q)
	}
	if q := Quantile(s, 1); q != 30 {
		t.Errorf("max = %v", q)
	}
	if q := Quantile([]float64{7}, 0.99); q != 7 {
		t.Errorf("single = %v", q)
	}
}

// An open-loop generator whose sender stalls must charge the stall to
// every item that fell due during it: latency runs from the due time,
// not from when the item finally went out.
func TestOpenLoopLatencyCountsClientQueueing(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := Schedule{Start: t0, Rate: 1000} // one item per ms
	if d := s.Due(5); d != t0.Add(5*time.Millisecond) {
		t.Fatalf("Due(5) = %v", d.Sub(t0))
	}
	if n := s.DueBy(t0.Add(9500 * time.Microsecond)); n != 10 {
		t.Fatalf("DueBy(9.5ms) = %d, want 10", n)
	}
	if n := s.DueBy(t0.Add(-time.Millisecond)); n != 0 {
		t.Fatalf("DueBy(before start) = %d", n)
	}
	// The connection was busy until 10 ms; items 0..9 go out together
	// then and are answered 1 ms later.
	arrived := t0.Add(11 * time.Millisecond)
	for i := 0; i < 10; i++ {
		got := Latency(s.Due(i), arrived)
		want := time.Duration(11-i) * time.Millisecond
		if got != want {
			t.Errorf("item %d latency = %v, want %v", i, got, want)
		}
	}
	// Measured from the send instant every item would read 1 ms and
	// hide the 10 ms stall; the oldest item must carry all of it.
	if Latency(s.Due(0), arrived) <= arrived.Sub(t0.Add(10*time.Millisecond)) {
		t.Error("latency from due time must exceed latency from send time")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "window", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "platform", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "platform", Start: 30, End: 50},   // overlaps 3
		{ID: 5, Parent: 2, Name: "checkpoint", Start: 80, End: 95}, // sticks out of run
		{ID: 6, Parent: 5, Name: "snapshot", Start: 82, End: 90},
	}
	got := SelfTimes(spans)
	want := map[string]int64{
		"window":     100 - 80,
		"run":        80 - (30 + 10), // platform union [20,50], checkpoint clipped [80,90]
		"platform":   20 + 20,
		"checkpoint": 15 - 8,
		"snapshot":   8,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	// Disjoint children that stay inside their parent make self times
	// sum to the root. Here two intervals are counted twice: the 10 ns
	// the platform siblings overlap, and the checkpoint's 5 ns outside
	// "run" (in the checkpoint and again in the window).
	if sum != 100+10+5 {
		t.Errorf("sum of self times = %d, want 115", sum)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	same := []float64{100, 100, 101, 99, 100, 101, 99, 100, 102, 98}
	noisy := []float64{60, 140, 90, 130, 70, 150, 100, 50, 120, 80}

	cases := []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         Verdict
	}{
		{"lower-is-better gain", base, faster, false, Improved},
		{"lower-is-better regression", base, slower, false, Worse},
		{"higher-is-better gain", base, slower, true, Improved},
		{"higher-is-better regression", base, faster, true, Worse},
		{"within bound", base, same, false, Unchanged},
		{"spread over bound", base, noisy, false, Unresolved},
		{"parent spread over bound", noisy, same, false, Unresolved},
	}
	for _, c := range cases {
		got := Compare(c.a, c.b, c.higherBetter, 0.1)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
	// Noisy but every run of the change beats every run of the parent:
	// the spread no longer hides the direction.
	wide := []float64{10, 30, 15, 25, 20, 12, 28, 18, 22, 16}
	if got := Compare(base, wide, false, 0.1); got.Verdict != Improved {
		t.Errorf("all-better noisy change: %s, want improved", got.Verdict)
	}
	// Winning 8 of 10 pairs is not enough to claim a gain.
	mixed := append([]float64{}, faster...)
	mixed[0], mixed[1] = 130, 130
	if got := Compare(base, mixed, false, 0.5); got.Verdict == Improved || got.PairsWonB != 0.8 {
		t.Errorf("8/10 pairs: %s won %.2f, want no improvement at 0.80", got.Verdict, got.PairsWonB)
	}
}
