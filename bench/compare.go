package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// readResults reads a JSONL file of run records.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(values, n=4)
// gives (the exclusive method), which is how the driver judges steadiness.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(q(0.75)-q(0.25), median(s))
}

// worseBy is how much worse b is than a as a share of a, negative when b is
// better.
func worseBy(m metricDef, a, b float64) float64 {
	if m.Better == higher {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// runCompare prints, per workload and end-to-end metric, the medians of the
// untraced runs in files A and B, B's change and the bound, and returns a
// non-zero exit code when B is worse than A by more than a bound, when B lacks
// a workload or metric A has, when either side has a failed run, or when a
// count that must repeat exactly for one seed differs between the traced runs.
func runCompare(w io.Writer, manifestPath, pathA, pathB string) int {
	man, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	breaches := 0
	breach := func(format string, args ...any) {
		breaches++
		fmt.Fprintf(w, "BREACH: "+format+"\n", args...)
	}
	for _, side := range []struct {
		name string
		runs []*result
	}{{"A", a}, {"B", b}} {
		for _, r := range side.runs {
			if !r.Correct || r.Failed > 0 {
				breach("%s: %s (seed %d, traced %v) failed %d of %d operations", side.name, r.Workload, r.Seed, r.Traced, r.Failed, r.Attempted)
			}
		}
	}

	group := func(runs []*result, workload string, traced bool) []*result {
		var out []*result
		for _, r := range runs {
			if r.Workload == workload && r.Traced == traced {
				out = append(out, r)
			}
		}
		return out
	}
	values := func(runs []*result, metric string) []float64 {
		var out []float64
		for _, r := range runs {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
		return out
	}

	fmt.Fprintf(w, "%-15s %-13s %14s %14s %8s %7s %8s %8s %5s\n",
		"workload", "metric", "A median", "B median", "B worse", "bound", "A spread", "B spread", "runs")
	for _, wl := range man.Workloads {
		ra, rb := group(a, wl.Name, false), group(b, wl.Name, false)
		if len(ra) == 0 {
			continue
		}
		if len(rb) == 0 {
			breach("workload %s is missing from B", wl.Name)
			continue
		}
		for _, m := range man.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 {
				continue
			}
			if len(vb) == 0 {
				breach("%s: metric %s is missing from B", wl.Name, m.Name)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worseBy(m, ma, mb)
			fmt.Fprintf(w, "%-15s %-13s %14.4f %14.4f %+7.1f%% %6.1f%% %7.1f%% %7.1f%% %2d/%-2d\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*spread(va), 100*spread(vb), len(va), len(vb))
			if worse > m.Bound {
				breach("%s: %s is %.1f %% worse in B (bound %.1f %%)", wl.Name, m.Name, 100*worse, 100*m.Bound)
			}
		}
	}

	// Counts of the traced single-client passes repeat exactly for one seed.
	for _, wl := range man.Workloads {
		for _, ta := range group(a, wl.Name, true) {
			for _, tb := range group(b, wl.Name, true) {
				if ta.Seed != tb.Seed || ta.Env == nil || tb.Env == nil || ta.Env.Seconds != tb.Env.Seconds {
					continue
				}
				names := append([]string(nil), exactCountMetrics...)
				sort.Strings(names)
				same := 0
				for _, name := range names {
					if ta.Metrics[name] != tb.Metrics[name] {
						breach("%s seed %d: count %s is %v in A and %v in B", wl.Name, ta.Seed, name, ta.Metrics[name], tb.Metrics[name])
					} else {
						same++
					}
				}
				fmt.Fprintf(w, "%-15s traced, seed %d: %d of %d exact counts agree\n", wl.Name, ta.Seed, same, len(names))
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(w, "no breach")
	return 0
}

// manifestJSON renders BENCHMARK.json from the metric tables.
func manifestJSON(runSeconds int) ([]byte, error) {
	doc := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, manifestWorkload{w.name, workloadWhy[w.name]})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
