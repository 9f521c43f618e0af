// Command bench is the repository's benchmark: five named workloads that
// drive the reproduction only through public functions of its packages, the
// end-to-end metrics a user of the system would see, and a separate traced
// pass that says which layer the time went to. BENCHMARK.json at the
// repository root is the contract it is run under; README.md in this
// directory is the vocabulary later changes must use.
//
//	bash bench/run.sh --workload serve-durable --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload replay-oo7 --seed 1 --seconds 10 --trace 1
//	bash bench/run.sh -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is their median.
	setupRepeats = 5
	// runSeconds is BENCHMARK.json's run_seconds, the window the driver asks for.
	runSeconds = 15
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string // scratch and result directory inside the checkout
}

// result is what one run measured.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"` // per metric
	Notes     map[string]float64 `json:"notes"`   // window lengths, counts, percentile picked
	Errors    []string           `json:"errors,omitempty"`
	Env       *environment       `json:"env"`
}

func newResult(rc runConfig) *result {
	return &result{
		Workload: rc.workload, Traced: rc.traced, Seed: rc.seed,
		Metrics: make(map[string]float64), Samples: make(map[string]int), Notes: make(map[string]float64),
	}
}

func (r *result) set(name string, v float64, samples int) {
	r.Metrics[name] = v
	r.Samples[name] = samples
}

func (r *result) note(name string, v float64) { r.Notes[name] = v }

// fail records one failed output check; it counts as a failed operation.
func (r *result) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	r.addError(fmt.Sprintf(format, args...))
}

func (r *result) addError(msg string) {
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, msg)
	}
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

var workloads = []workload{
	{"replay-oo7", func(rc runConfig) (*result, error) { return runReplay(rc, replayOO7) }},
	{"replay-gcheavy", func(rc runConfig) (*result, error) { return runReplay(rc, replayGCHeavy) }},
	{"serve-mem", func(rc runConfig) (*result, error) { return runServe(rc, false) }},
	{"serve-durable", func(rc runConfig) (*result, error) { return runServe(rc, true) }},
	{"restart", runRestart},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: replay-oo7, replay-gcheavy, serve-mem, serve-durable, restart")
		seed    = flag.Int64("seed", 1, "seeds trace generation and the per-client request streams")
		seconds = flag.Int("seconds", runSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		out     = flag.String("out", "", "append the full run record (environment, samples, notes) to this JSONL file (default <root>/bench/out/results.jsonl)")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare A.jsonl B.jsonl")
		manif   = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	)
	flag.Parse()
	if *manif {
		b, err := manifestJSON(runSeconds)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.jsonl B.jsonl"))
		}
		os.Exit(runCompare(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal(fmt.Errorf("usage: bench --workload NAME --seed N --seconds S --trace 0|1"))
	}
	rc := runConfig{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, outDir: filepath.Join(root, "bench", "out"),
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == rc.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", rc.workload))
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		fatal(err)
	}
	res, err := w.run(rc)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", rc.workload, err))
	}
	res.Correct = res.Failed == 0
	res.Env = captureEnv(rc)
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	printHuman(res)
	if *out == "" {
		*out = filepath.Join(rc.outDir, "results.jsonl")
	}
	if err := appendRecord(*out, res); err != nil {
		fatal(err)
	}
	if err := printContractLine(res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the harness writes its scratch files inside the checkout
// wherever it was started from.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// metricsFor lists the metrics a pass must report.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// printHuman prints every metric of the pass by name with its unit.
func printHuman(res *result) {
	fmt.Printf("workload %s  seed %d  traced %v\n", res.Workload, res.Seed, res.Traced)
	for _, m := range metricsFor(res.Traced) {
		fmt.Printf("  %-34s %16.4f %-8s (n=%d)\n", m.Name, res.Metrics[m.Name], m.Unit, res.Samples[m.Name])
	}
	keys := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  note %-29s %16.4f\n", k, res.Notes[k])
	}
	fmt.Printf("  attempted %d  failed %d  fail_frac %.6f\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, e := range res.Errors {
		fmt.Printf("  FAILED CHECK: %s\n", e)
	}
}

// contractMetric is one metric of the driver's result line.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the one JSON object the driver reads, last.
func printContractLine(res *result) error {
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]contractMetric)}
	for _, m := range metricsFor(res.Traced) {
		line.Metrics[m.Name] = contractMetric{Value: res.Metrics[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// appendRecord appends the full run record to a JSONL file.
func appendRecord(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
