// Command drift runs the study workload once and prints one result
// line. It imports only the root footsteps API (through
// footsteps/perfbench/study), so drift.sh can build it against older
// commits and compare them with the benchmark's comparator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"footsteps/perfbench/measure"
	"footsteps/perfbench/study"
)

func main() {
	seed := flag.Uint64("seed", 1, "study seed")
	flag.Parse()
	st, setup := study.Setup(*seed)
	run, res, err := study.Business(st)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drift:", err)
		os.Exit(1)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(res)
	days := make([]float64, len(run.Days))
	for i, d := range run.Days {
		days[i] = float64(d) / float64(time.Millisecond)
	}
	metric := func(v float64, unit string) map[string]any { return map[string]any{"value": v, "unit": unit} }
	fmt.Fprintf(os.Stderr, "drift: %d events, report sha256 %x, check ok %t\n", run.Events, run.ReportSHA, run.CheckOK)
	out, _ := json.Marshal(map[string]any{
		"correct": run.CheckOK, "attempted": 1, "failed": map[bool]int{true: 0, false: 1}[run.CheckOK],
		"report": fmt.Sprintf("%x", run.ReportSHA), "events": run.Events,
		"metrics": map[string]any{
			"setup_s":          metric(setup.Seconds(), "s"),
			"throughput_per_s": metric(float64(run.SimDays)/run.Wall.Seconds(), "1/s"),
			"latency_p50_ms":   metric(measure.Median(days), "ms"),
			"heap_live_mib":    metric(float64(ms.HeapAlloc)/(1<<20), "MiB"),
		},
	})
	fmt.Println(string(out))
}
