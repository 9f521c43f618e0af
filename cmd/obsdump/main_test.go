package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/obs"
)

// writeLog emits a small but representative event log to a temp file.
func writeLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := obs.NewJSONLWriter(f)
	w.Observe(obs.Envelope{RunStart: &obs.RunStart{Policy: "saio(10%)", Selection: "updated-pointer", Preamble: 10}})
	w.Observe(obs.Envelope{Phase: &obs.PhaseChange{Step: 0, Label: "GenDB"}})
	w.Observe(obs.Envelope{Decision: &obs.Decision{Step: 40, Collected: true, DBBytes: 1000, GarbageBytes: 100}})
	w.Observe(obs.Envelope{Collection: &obs.Collection{Index: 1, Step: 40, Phase: "GenDB", ReclaimedBytes: 90}})
	w.Observe(obs.Envelope{Progress: &obs.Progress{Step: 1000, Collections: 1, Phase: "GenDB"}})
	w.Observe(obs.Envelope{RunEnd: &obs.RunEnd{Events: 1200, Collections: 1, Reclaimed: 90}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestObsdumpPrettyPrint(t *testing.T) {
	path := writeLog(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{
		"run_start   policy=saio(10%)",
		`phase       @0 "GenDB"`,
		"collection  #1 @40 GenDB",
		"run_end     events=1200",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestObsdumpTypeFilterAndLimit(t *testing.T) {
	path := writeLog(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-type", "collection", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(stdout.String(), "\n"); got != 1 {
		t.Errorf("type filter printed %d lines, want 1:\n%s", got, stdout.String())
	}

	stdout.Reset()
	if err := run([]string{"-n", "2", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(stdout.String(), "\n"); got != 2 {
		t.Errorf("-n 2 printed %d lines:\n%s", got, stdout.String())
	}
}

func TestObsdumpStats(t *testing.T) {
	path := writeLog(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-stats", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "events: 6") || !strings.Contains(out, "summary: 1200 trace events") {
		t.Errorf("stats output wrong:\n%s", out)
	}
	// One collection: no distribution lines for a single sample.
	if strings.Contains(out, "reclaimed bytes per collection") {
		t.Errorf("single-sample distribution printed:\n%s", out)
	}
}

func TestObsdumpStatsDistributions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := obs.NewJSONLWriter(f)
	w.Observe(obs.Envelope{RunStart: &obs.RunStart{Policy: "saga", Selection: "updated-pointer"}})
	for i := 1; i <= 20; i++ {
		w.Observe(obs.Envelope{Collection: &obs.Collection{
			Index: i, Step: i * 50, Phase: "GenDB",
			ReclaimedBytes: 100 * i, Interval: 50,
		}})
	}
	w.Observe(obs.Envelope{RunEnd: &obs.RunEnd{Events: 1000, Collections: 20}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-stats", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "reclaimed bytes per collection (20 samples, mean 1050.0)") {
		t.Errorf("reclaimed distribution missing:\n%s", out)
	}
	// All intervals identical: the degenerate single-value form.
	if !strings.Contains(out, "steps between collections: 20 samples, all 50") {
		t.Errorf("interval distribution missing:\n%s", out)
	}
}

func TestObsdumpCheck(t *testing.T) {
	path := writeLog(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-check", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "ok: 6 events") {
		t.Errorf("check verdict wrong: %s", stdout.String())
	}

	// A corrupt log must fail the check.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"v":1,"seq":3,"type":"progress","progress":{"step":1000}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", bad}, &stdout, &stderr); err == nil {
		t.Error("corrupt log passed -check")
	}
}

func TestObsdumpErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{}, &stdout, &stderr); err == nil {
		t.Error("missing argument accepted")
	}
	if err := run([]string{"a", "b"}, &stdout, &stderr); err == nil {
		t.Error("two arguments accepted")
	}
	if err := run([]string{"/nonexistent.jsonl"}, &stdout, &stderr); err == nil {
		t.Error("absent file accepted")
	}
	path := writeLog(t)
	if err := run([]string{"-type", "wat", path}, &stdout, &stderr); err == nil {
		t.Error("unknown -type accepted")
	}
	if err := run([]string{"-n", "-1", path}, &stdout, &stderr); err == nil {
		t.Error("negative -n accepted")
	}
}
