package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/trace"
)

func TestRunGeneratesValidBinaryTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.odbt")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-o", out, "-validate", "-seed", "7"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	if !strings.Contains(stderr.String(), "garbage objects") {
		t.Errorf("summary missing: %q", stderr.String())
	}
}

// TestRunQuietPhaseSubset: -o - writes the binary trace to stdout, -phases
// limits it to the named phases, and -q leaves stderr empty.
func TestRunQuietPhaseSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-o", "-", "-q", "-phases", "GenDB"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadAll(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.ComputeStats(tr)
	if len(s.Phases) != 1 || s.Phases[0] != "GenDB" {
		t.Errorf("phases = %v", s.Phases)
	}
	if stderr.Len() != 0 {
		t.Errorf("-q still printed: %q", stderr.String())
	}
}

func TestRunChurnWorkload(t *testing.T) {
	out := filepath.Join(t.TempDir(), "c.odbt")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-o", out, "-workload", "churn", "-validate", "-q"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(out)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("churn trace not written: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("missing -o accepted")
	}
	if err := run([]string{"-o", "-", "-phases", "Bogus", "-q"}, &stdout, &stderr); err == nil {
		t.Error("unknown phase accepted")
	}
	if err := run([]string{"-o", "-", "-workload", "nope", "-q"}, &stdout, &stderr); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-o", filepath.Join(t.TempDir(), "x"), "-conn", "25", "-q"}, &stdout, &stderr); err == nil {
		t.Error("invalid connectivity accepted")
	}
}

func TestRunIdleFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "i.odbt")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-o", out, "-idle", "50", "-q"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if s := trace.ComputeStats(tr); s.IdleTicks != 150 { // 3 boundaries x 50
		t.Errorf("idle ticks = %d, want 150", s.IdleTicks)
	}
}
