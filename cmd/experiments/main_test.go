package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odbgc/internal/obs"
	"odbgc/internal/simerr"
)

func TestExperimentsTable1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-run", "table1", "-runs", "1"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "NumAtomicPerComp") || !strings.Contains(out, "took") {
		t.Errorf("table1 output incomplete:\n%s", out)
	}
}

func TestExperimentsCSVAndPlot(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-run", "fig2,fig7b", "-runs", "1", "-plot", "-csvdir", dir}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	// fig7b has series: CSV file plus a chart per series.
	csv, err := os.ReadFile(filepath.Join(dir, "fig7b.csv"))
	if err != nil {
		t.Fatalf("fig7b.csv missing: %v", err)
	}
	if !strings.HasPrefix(string(csv), "collection,") {
		t.Errorf("csv header wrong: %q", string(csv[:40]))
	}
	if !strings.Contains(stdout.String(), "fig7b: interval_overwrites") {
		t.Errorf("plot missing from output")
	}
	// fig2 has no series: no CSV file expected.
	if _, err := os.Stat(filepath.Join(dir, "fig2.csv")); err == nil {
		t.Error("fig2.csv written despite having no series")
	}
}

// TestExperimentsUnknownName: a misspelt name anywhere in -run fails the
// command before any experiment runs.
func TestExperimentsUnknownName(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-run", "table1,fig99"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Errorf("unknown experiment: error %v, want one naming fig99", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("experiments ran before the unknown name was refused:\n%s", stdout.String())
	}
}

// TestExperimentsFlagValidation checks that out-of-range counts are rejected
// with an error naming the flag.
func TestExperimentsFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"runs zero", []string{"-runs", "0"}, "-runs"},
		{"runs negative", []string{"-runs", "-2"}, "-runs"},
		{"conn zero", []string{"-conn", "0"}, "-conn"},
		{"seed zero", []string{"-seed", "0"}, "-seed"},
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

// TestExperimentsEventsAndManifest runs a small sweep with -events-dir and
// -manifest-dir and checks that per-run event logs validate and the manifest
// digests the CSV artifact.
func TestExperimentsEventsAndManifest(t *testing.T) {
	evDir := t.TempDir()
	manDir := t.TempDir()
	csvDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-run", "fig4", "-runs", "1",
		"-events-dir", evDir, "-manifest-dir", manDir, "-csvdir", csvDir}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}

	logs, err := filepath.Glob(filepath.Join(evDir, "fig4-batch*", "run-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) == 0 {
		t.Fatalf("no event logs under %s", evDir)
	}
	f, err := os.Open(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	envs, err := obs.ReadAll(f)
	if err != nil {
		t.Fatalf("%s does not validate: %v", logs[0], err)
	}
	if len(envs) == 0 {
		t.Fatalf("%s is empty", logs[0])
	}

	m, err := obs.ReadManifest(filepath.Join(manDir, "fig4.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "experiments" || m.Seed != 1 {
		t.Errorf("manifest provenance wrong: %+v", m)
	}
	if len(m.Artifacts) != 1 || m.Artifacts[0].Path != "fig4.csv" {
		t.Errorf("manifest artifacts wrong: %+v", m.Artifacts)
	}
	var gotRuns bool
	for _, kv := range m.Config {
		if kv.Key == "runs" && kv.Value == "1" {
			gotRuns = true
		}
	}
	if !gotRuns {
		t.Errorf("manifest config does not record -runs: %+v", m.Config)
	}
}

// TestExperimentsChaosParallelismIsInvisible: a sweep writes the same CSV
// bytes, and so the same manifest artifact digest, whether its runs go one at
// a time or two at a time.
func TestExperimentsChaosParallelismIsInvisible(t *testing.T) {
	sweep := func(parallel string) ([]byte, string) {
		csvDir, manDir := t.TempDir(), t.TempDir()
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"-run", "fig4", "-runs", "2", "-parallel", parallel,
			"-csvdir", csvDir, "-manifest-dir", manDir}, &stdout, &stderr)
		if err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		csv, err := os.ReadFile(filepath.Join(csvDir, "fig4.csv"))
		if err != nil {
			t.Fatal(err)
		}
		m, err := obs.ReadManifest(filepath.Join(manDir, "fig4.manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Artifacts) != 1 {
			t.Fatalf("-parallel %s: artifacts %+v", parallel, m.Artifacts)
		}
		return csv, m.Artifacts[0].SHA256
	}
	csv1, sum1 := sweep("1")
	csv2, sum2 := sweep("2")
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("fig4.csv differs between -parallel 1 and -parallel 2:\n%s\nvs\n%s", csv1, csv2)
	}
	if sum1 != sum2 {
		t.Errorf("artifact digest %s at -parallel 1, %s at -parallel 2", sum1, sum2)
	}
}

// TestExperimentsInterrupt: a context cancelled while fig4 is running (the
// watcher cancels when the first run's event log appears; fig4 has seven more
// batches to go by then) ends the sweep with a canceled-class error, writes
// no fig4.csv, and leaves every event log closed at a line boundary.
func TestExperimentsInterrupt(t *testing.T) {
	csvDir, evDir := t.TempDir(), t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		for ctx.Err() == nil {
			if m, _ := filepath.Glob(filepath.Join(evDir, "*", "run-*.jsonl")); len(m) > 0 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var stdout, stderr bytes.Buffer
	err := run(ctx, []string{"-run", "fig4", "-runs", "1",
		"-csvdir", csvDir, "-events-dir", evDir}, &stdout, &stderr)
	cancel()
	<-watchDone
	if err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	if got := simerr.Classify(err); got != simerr.ClassCanceled {
		t.Fatalf("interrupted sweep error = %v (class %s), want canceled", err, got)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "fig4.csv")); err == nil {
		t.Error("fig4.csv written for an interrupted experiment")
	}
	logs, err := filepath.Glob(filepath.Join(evDir, "*", "run-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range logs {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = obs.ReadAll(f)
		f.Close()
		if err != nil {
			t.Errorf("%s does not validate: %v", path, err)
		}
	}
}
