// Command perfbench is the repository benchmark. It runs one named
// workload of the simulator for a fixed measurement window, checks the
// workload's outputs, and prints a report followed by one JSON result
// line. See README.md in this directory for the workloads, metrics and
// modes; run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh --compare parent/ change/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workloads maps a workload name to its runner, in report order.
var workloads = []struct {
	name string
	run  func(o opts) *result
}{
	{"study", runStudy},
	{"scale", runScale},
	{"durable", runDurable},
	{"serve", runServe},
}

// opts are the command-line settings every workload sees.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	tmp     string // scratch directory inside the checkout
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed every input derives from")
		seconds  = flag.Float64("seconds", 15, "measurement window per run, in seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two result directories against BENCHMARK.json's bounds: --compare A B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare needs two result directories")
		}
		if err := runCompare("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatalf("run from the repository root (no go.mod here)")
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *traced == 1, tmp: ".bench_build/tmp"}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fatalf("scratch dir: %v", err)
	}
	var picked []int
	for i, w := range workloads {
		if *workload == w.name || *workload == "all" {
			picked = append(picked, i)
		}
	}
	if len(picked) == 0 {
		fatalf("unknown --workload %q (study, scale, durable, serve, all)", *workload)
	}
	ok := true
	var last *result
	for _, i := range picked {
		heap := startHeapSampler()
		r := workloads[i].run(o)
		r.peakHeap(heap.stop())
		r.print(os.Stdout, workloads[i].name, o.trace)
		ok = ok && r.correct
		last = r
	}
	if len(picked) > 1 {
		last = nil // a result line describes one workload; "all" prints reports only
	}
	if last != nil {
		fmt.Println(last.jsonLine(o.trace))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported value with its unit and sample count.
type metric struct {
	value float64
	unit  string
	n     int
	note  string
}

// result is one workload run.
type result struct {
	correct           bool
	attempted, failed int
	e2e               map[string]metric // end-to-end: the BENCHMARK.json names
	named             map[string]metric // the workload's own end-to-end names
	layer             map[string]metric // per-layer, traced pass only
	problems          []string
}

func newResult() *result {
	return &result{correct: true, e2e: map[string]metric{}, named: map[string]metric{}, layer: map[string]metric{}}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records one checked operation.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) set(m map[string]metric, name string, v float64, unit string, n int) {
	m[name] = metric{value: v, unit: unit, n: n}
}

func (r *result) print(out *os.File, workload string, traced bool) {
	fmt.Fprintf(out, "== %s (traced=%t) attempted=%d failed=%d fail_ratio=%.6f correct=%t\n",
		workload, traced, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)), r.correct)
	for _, p := range r.problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	section := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(out, "-- %s\n", title)
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := m[k]
			line := fmt.Sprintf("%-34s %14.6g %-6s n=%d", k, v.value, v.unit, v.n)
			if v.note != "" {
				line += "  " + v.note
			}
			fmt.Fprintln(out, strings.TrimRight(line, " "))
		}
	}
	section("end-to-end (BENCHMARK.json)", r.e2e)
	section("end-to-end ("+workload+")", r.named)
	section("per-layer", r.layer)
}

func (r *result) jsonLine(traced bool) string {
	src := r.e2e
	if traced {
		src = r.layer
	}
	ms := make(map[string]map[string]any, len(src))
	for k, v := range src {
		ms[k] = map[string]any{"value": v.value, "unit": v.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": max(r.attempted, 1), "failed": r.failed, "metrics": ms,
	})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	return string(b)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
