package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/obs"
	"odbgc/internal/oo7"
	"odbgc/internal/trace"
)

// gcsim with no trace argument generates its own small run in memory, so
// the tests drive the full pipeline through the CLI surface.

func TestGcsimSAIOSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-policy", "saio", "-frac", "0.15"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"policy:            saio(15%)", "collections:", "gc I/O share:", "phase Reorg2"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestGcsimPolicyVariants(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "saga", "-frac", "0.10", "-estimator", "oracle"},
		{"-policy", "saga", "-estimator", "fgs-pp", "-sloperef", "100"},
		{"-policy", "pi", "-frac", "0.10"},
		{"-policy", "coupled", "-frac", "0.10"},
		{"-policy", "fixed", "-interval", "500"},
		{"-policy", "never"},
		{"-policy", "fixed", "-interval", "400", "-selection", "round-robin", "-fixups"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

func TestGcsimPerCollectionLog(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-policy", "fixed", "-interval", "400", "-log", "-logevery", "10"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "#   1 ") {
		t.Errorf("per-collection log missing:\n%s", stdout.String())
	}
}

// TestGcsimStreamsTraceFile exercises the streaming path: a trace file on
// disk is replayed without loading it whole.
func TestGcsimStreamsTraceFile(t *testing.T) {
	p := oo7.SmallPrime(3)
	p.NumCompPerModule = 15
	p.NumAssmLevels = 3
	tr, err := oo7.FullTrace(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.odbt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAll(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-policy", "saio", "-frac", "0.20", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "collections:") {
		t.Errorf("summary missing:\n%s", stdout.String())
	}
}

func TestGcsimCompare(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-compare", "saio:0.1,saga:0.1:oracle,fixed:400,never"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"saio(10%)", "saga(10%,oracle)", "fixed(400)", "never", "mean garbage %"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare table missing %q:\n%s", want, out)
		}
	}
}

func TestGcsimCompareSpecErrors(t *testing.T) {
	for _, spec := range []string{"wat", "saio:x", "fixed:x", "saga:0.1:bogus", "saio:0.1:x:y"} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), []string{"-compare", spec}, &stdout, &stderr); err == nil {
			t.Errorf("bad spec %q accepted", spec)
		}
	}
}

func TestGcsimPhasesTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-policy", "fixed", "-interval", "500", "-phases"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"GenDB", "Reorg1", "Traverse", "Reorg2", "mean garbage %"} {
		if !strings.Contains(out, want) {
			t.Errorf("phase table missing %q", want)
		}
	}
}

func TestGcsimErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-policy", "wat"}, &stdout, &stderr); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run(context.Background(), []string{"-policy", "saga", "-estimator", "wat"}, &stdout, &stderr); err == nil {
		t.Error("unknown estimator accepted")
	}
	if err := run(context.Background(), []string{"-selection", "wat"}, &stdout, &stderr); err == nil {
		t.Error("unknown selection accepted")
	}
	if err := run(context.Background(), []string{"a.odbt", "b.odbt"}, &stdout, &stderr); err == nil {
		t.Error("two trace arguments accepted")
	}
	if err := run(context.Background(), []string{"/nonexistent/trace.odbt"}, &stdout, &stderr); err == nil {
		t.Error("absent trace accepted")
	}
}

func TestGcsimDistributions(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-policy", "fixed", "-interval", "400", "-dist"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "yield distribution") || !strings.Contains(out, "interval distribution") {
		t.Errorf("distributions missing:\n%s", out)
	}
}

// TestGcsimFlagValidation checks that out-of-range flag values are rejected
// with an error naming the flag, rather than clamped or silently accepted.
func TestGcsimFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"logevery zero", []string{"-log", "-logevery", "0"}, "-logevery"},
		{"logevery negative", []string{"-log", "-logevery", "-3"}, "-logevery"},
		{"frac negative", []string{"-frac", "-0.1"}, "-frac"},
		{"frac above one", []string{"-frac", "1.5"}, "-frac"},
		{"history negative", []string{"-history", "-1"}, "-history"},
		{"preamble negative", []string{"-preamble", "-1"}, "-preamble"},
		{"serve-after negative", []string{"-http", ":0", "-serve-after", "-1s"}, "-serve-after"},
		{"serve-after without http", []string{"-serve-after", "1s"}, "-http"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), c.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("args %v: error %v, want mention of %q", c.args, err, c.want)
			}
		})
	}
}

// TestGcsimEventsAndManifest drives the observability path end to end: a run
// with -events and -manifest writes a valid JSONL log and a manifest whose
// artifact digest matches the log, and a second identical run reproduces both
// byte for byte.
func TestGcsimEventsAndManifest(t *testing.T) {
	dir := t.TempDir()
	do := func(sub string) (eventsBytes []byte, m *obs.Manifest) {
		t.Helper()
		events := filepath.Join(dir, sub+".jsonl")
		manifest := filepath.Join(dir, sub+".json")
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"-policy", "saio", "-frac", "0.15",
			"-events", events, "-manifest", manifest}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		b, err := os.ReadFile(events)
		if err != nil {
			t.Fatal(err)
		}
		m, err = obs.ReadManifest(manifest)
		if err != nil {
			t.Fatal(err)
		}
		return b, m
	}

	eventsA, mA := do("a")
	envs, err := obs.ReadAll(bytes.NewReader(eventsA))
	if err != nil {
		t.Fatalf("event log does not validate: %v", err)
	}
	if len(envs) == 0 {
		t.Fatal("empty event log")
	}
	if envs[0].Type != obs.TypeRunStart || envs[len(envs)-1].Type != obs.TypeRunEnd {
		t.Errorf("log not bracketed by run_start/run_end: %s ... %s",
			envs[0].Type, envs[len(envs)-1].Type)
	}
	if mA.Policy != "saio(15%)" || mA.Trace == nil || mA.Trace.Source != "generated:oo7" {
		t.Errorf("manifest provenance wrong: %+v", mA)
	}
	if len(mA.Artifacts) != 1 || mA.Artifacts[0].Bytes != int64(len(eventsA)) {
		t.Errorf("manifest artifact digest wrong: %+v", mA.Artifacts)
	}
	if mA.Summary == nil || mA.Summary.Collections == 0 {
		t.Errorf("manifest summary missing: %+v", mA.Summary)
	}

	eventsB, mB := do("b")
	if !bytes.Equal(eventsA, eventsB) {
		t.Error("identical-seed runs wrote different event logs")
	}
	if mA.SummarySHA256 != mB.SummarySHA256 || mA.Artifacts[0].SHA256 != mB.Artifacts[0].SHA256 {
		t.Error("identical-seed runs produced different manifest digests")
	}
}

// TestGcsimHTTP runs with -http and scrapes the endpoints after the run, the
// CLI-level counterpart of the handler tests in internal/obs.
func TestGcsimHTTP(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-policy", "saio", "-http", "127.0.0.1:0",
		"-serve-after", "1ms"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "serving metrics on http://") {
		t.Errorf("bound address not announced:\n%s", stdout.String())
	}
}
