package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"footsteps/perfbench/measure"
)

// spec is the part of BENCHMARK.json the comparator needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runLine is one result line as the benchmark prints it.
type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// loadRuns reads <dir>/<workload>.jsonl files: every line that is a
// result object counts as one run, in file order (the order pairs were
// run in).
func loadRuns(dir string) (map[string][]runLine, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	out := map[string][]runLine{}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<16), 1<<22)
		wl := strings.TrimSuffix(filepath.Base(f), ".jsonl")
		for sc.Scan() {
			var rl runLine
			if json.Unmarshal(sc.Bytes(), &rl) == nil && rl.Metrics != nil {
				out[wl] = append(out[wl], rl)
			}
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no <workload>.jsonl result files", dir)
	}
	return out, nil
}

// runCompare prints, for every (workload, end-to-end metric) present on
// both sides, each side's median and quartiles, the share of pairs the
// change (b) won, and the verdict against the metric's bound.
func runCompare(specPath, dirA, dirB string, out io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	var wls []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	if len(wls) == 0 {
		return fmt.Errorf("no workload has results on both sides")
	}
	fmt.Fprintf(out, "%-8s %-18s %-34s %-34s %6s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "B won", "verdict")
	for _, wl := range wls {
		failA, failB := failRatio(a[wl]), failRatio(b[wl])
		fmt.Fprintf(out, "%-8s %-18s %-34s %-34s\n", wl, "fail_ratio", fmt.Sprintf("%.6f", failA), fmt.Sprintf("%.6f", failB))
		for _, m := range sp.EndToEnd {
			xa, xb := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := measure.Compare(xa, xb, m.Better == "higher", m.Bound)
			side := func(s measure.Summary) string {
				return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", s.Med, s.Q1, s.Q3, s.N)
			}
			fmt.Fprintf(out, "%-8s %-18s %-34s %-34s %5.0f%%  %s (bound %.0f%%, %s is better)\n",
				wl, m.Name, side(c.A), side(c.B), 100*c.PairsWonB, c.Verdict, 100*m.Bound, m.Better)
		}
	}
	return nil
}

func values(runs []runLine, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failRatio(runs []runLine) float64 {
	var att, failed int
	for _, r := range runs {
		att += r.Attempted
		failed += r.Failed
		if !r.Correct && r.Failed == 0 {
			failed++
		}
	}
	return ratio(float64(failed), float64(att))
}
