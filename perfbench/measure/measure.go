// Package measure holds the benchmark's own arithmetic: percentiles
// with the "ten samples beyond" rule, open-loop latency from due times,
// self-time subtraction over span trees, and the two-commit comparator.
// It imports nothing from the simulator, so its rules are unit-tested
// in isolation and shared by every workload and by the drift tool.
package measure

import (
	"math"
	"sort"
	"time"
)

// Quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (any order, non-empty).
func Median(xs []float64) float64 { return Quantile(Sorted(xs), 0.5) }

// Quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so spreads printed here match the ones
// an outside checker derives from the same values. It needs two values.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	d := Sorted(xs)
	ld := len(d)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	const n = 4
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// Spread is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// TailLadder lists the percentiles a tail may be reported at, highest
// first.
var TailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// MinBeyond is how many samples must lie beyond a reported percentile.
const MinBeyond = 10

// HighestPercentile returns the highest percentile in TailLadder that
// still has at least MinBeyond of n samples beyond it, and false when
// even the median does not.
func HighestPercentile(n int) (float64, bool) {
	for _, p := range TailLadder {
		if Supports(n, p) {
			return p, true
		}
	}
	return 0, false
}

// Supports reports whether n samples carry percentile p under the
// ten-beyond rule. The small slack absorbs float error in 100-p.
func Supports(n int, p float64) bool { return float64(n)*(100-p)/100 >= MinBeyond-1e-9 }

// Schedule is an open-loop arrival schedule: item i is due at
// Start + i/Rate, whether or not earlier items have been answered.
type Schedule struct {
	Start time.Time
	Rate  float64 // items per second
}

// Due returns when item i was due to be sent.
func (s Schedule) Due(i int) time.Time {
	return s.Start.Add(time.Duration(float64(i) / s.Rate * float64(time.Second)))
}

// DueBy returns how many items are due at or before t.
func (s Schedule) DueBy(t time.Time) int {
	if t.Before(s.Start) {
		return 0
	}
	return int(t.Sub(s.Start).Seconds()*s.Rate) + 1
}

// Latency is an open-loop latency: from when the item was due, not when
// it was sent, to when its answer arrived. Any wait the sender imposed
// before sending (a busy connection, a stalled generator) is included.
func Latency(due, arrived time.Time) time.Duration { return arrived.Sub(due) }

// Span is one timed interval in a ledger. Parent is the ID of the span
// that caused it (0 for a root); Req groups the spans of one request.
type Span struct {
	ID, Parent uint64
	Req        uint64
	Name       string
	Start, End int64 // nanoseconds on one clock
}

// SelfTimes returns, per span name, the summed self time of the spans:
// each span's duration minus the part of its interval that its direct
// children cover (overlapping children count once, and only the part
// inside the parent counts).
func SelfTimes(spans []Span) map[string]int64 {
	kids := make(map[uint64][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	out := make(map[string]int64)
	for _, sp := range spans {
		var ivs [][2]int64
		for _, k := range kids[sp.ID] {
			c := spans[k]
			lo, hi := max(c.Start, sp.Start), min(c.End, sp.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		out[sp.Name] += (sp.End - sp.Start) - unionLen(ivs)
	}
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// Verdict is the comparator's judgement of one (workload, metric) pair.
type Verdict string

const (
	Improved   Verdict = "improved"
	Unchanged  Verdict = "unchanged"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
)

// WinShare is the share of wins a change needs, over all pairs run, to
// claim an improvement (ties count for neither side).
const WinShare = 0.9

// Comparison summarises two sets of runs of one metric.
type Comparison struct {
	A, B      Summary
	PairsWonB float64 // share of index-aligned pairs the B side won
	Pairs     int
	Verdict   Verdict
}

// Summary is one side's median and quartiles.
type Summary struct {
	N           int
	Q1, Med, Q3 float64
}

func summarize(xs []float64) Summary {
	q1, med, q3 := Quartiles(xs)
	return Summary{N: len(xs), Q1: q1, Med: med, Q3: q3}
}

// Compare judges side b (the change) against side a (the parent) for a
// metric where higherBetter says which direction is good, with bound the
// share of a's median by which b may be worse before it counts as a
// regression. The rules, in order:
//
//   - unresolved: either side's run-to-run spread (interquartile
//     distance over median) exceeds bound, unless every run of b reads
//     better than every run of a;
//   - improved: b wins at least WinShare of the index-aligned pairs and
//     the medians differ, in b's favour, by more than a's own
//     interquartile distance;
//   - worse: b's median is worse than a's by more than bound × a's median;
//   - unchanged otherwise.
func Compare(a, b []float64, higherBetter bool, bound float64) Comparison {
	c := Comparison{A: summarize(a), B: summarize(b)}
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	c.Pairs = min(len(a), len(b))
	wins := 0
	for i := 0; i < c.Pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if c.Pairs > 0 {
		c.PairsWonB = float64(wins) / float64(c.Pairs)
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	gain := c.B.Med - c.A.Med
	if !higherBetter {
		gain = -gain
	}
	switch {
	case (Spread(a) > bound || Spread(b) > bound) && !allBetter:
		c.Verdict = Unresolved
	case c.PairsWonB >= WinShare && gain > c.A.Q3-c.A.Q1:
		c.Verdict = Improved
	case -gain > bound*math.Abs(c.A.Med):
		c.Verdict = Worse
	default:
		c.Verdict = Unchanged
	}
	return c
}
