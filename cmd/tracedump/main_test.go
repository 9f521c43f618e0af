package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/oo7"
	"odbgc/internal/trace"
)

// writeTrace materializes a small OO7 trace for the tool to read.
func writeTrace(t *testing.T) string {
	t.Helper()
	p := oo7.SmallPrime(3)
	p.NumCompPerModule = 10
	p.NumAssmLevels = 3
	tr, err := oo7.FullTrace(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.odbt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteAll(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDumpStatsAndValidate(t *testing.T) {
	path := writeTrace(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-validate", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	for _, want := range []string{"events:", "overwrites:", "garbage:", "phases:", "trace is valid"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDumpPhasesAndEvents(t *testing.T) {
	path := writeTrace(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-stats=false", "-phases", "-events", "-n", "3", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "phase GenDB") {
		t.Errorf("phase listing missing:\n%s", out)
	}
	if !strings.Contains(out, "create oid:1") {
		t.Errorf("event listing missing:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines > 12 {
		t.Errorf("-n 3 not honored: %d lines", lines)
	}
}

func TestDumpErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "absent.odbt")}, &stdout, &stderr); err == nil {
		t.Error("absent file accepted")
	}
	// A non-trace file must be rejected.
	junk := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(junk, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{junk}, &stdout, &stderr); err == nil {
		t.Error("junk file accepted")
	}
	if err := run([]string{"-n", "-1", junk}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "-n must be >= 0") {
		t.Errorf("-n -1: %v, want a refusal naming -n", err)
	}
}
