package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
)

// writeSpanLog dumps a small flight recorder — two requests (one ok, one
// shed), a GC pause attributed to the ok request — to a temp file.
func writeSpanLog(t *testing.T) string {
	t.Helper()
	rec := span.NewRecorder(span.Config{Capacity: 16})
	okID := obs.RequestID(1, 1)
	sp := rec.Start(obs.KindRequest, "set", okID, 0, 100)
	sp.Session, sp.Seq = 1, 1
	sp.SetStage(obs.StageDecode, 2)
	sp.SetStage(obs.StageQueue, 10)
	sp.SetStage(obs.StageService, 30)
	sp.SetStage(obs.StageWrite, 3)
	g := rec.Start(obs.KindGC, "collect", obs.GCID(1), okID, 120)
	g.Partition, g.ReclaimedBytes, g.ReclaimedObjects = 3, 4096, 17
	g.SetStage(obs.StageService, 9)
	rec.PinID(okID)
	rec.Finish(g, 129, obs.OutcomeOK)
	rec.Finish(sp, 150, obs.OutcomeOK)
	shed := rec.Start(obs.KindRequest, "ping", obs.RequestID(2, 1), 0, 200)
	shed.Session, shed.Seq = 2, 1
	shed.SetStage(obs.StageQueue, 60)
	rec.Finish(shed, 265, obs.OutcomeShed)

	path := filepath.Join(t.TempDir(), "traces.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Dump closes the file.
	if _, err := rec.Dump(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestObsdumpSpansRender(t *testing.T) {
	path := writeSpanLog(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{
		"request 0000000000100001",
		"queue=10 service=30",
		"shed",
		"pinned",
		"gc      8000000000000001 pause=9",
		"reclaimed=4096B (17 objs)",
		"during=0000000000100001",
		"per-stage latency over 2 request spans",
		"critical path (dominant stage per request): queue=1 service=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestObsdumpSpansCheck(t *testing.T) {
	path := writeSpanLog(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-check", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "ok: 3 spans (2 requests, 1 gc, 0 dangling parents)") {
		t.Errorf("unexpected -check verdict: %s", stdout.String())
	}

	// Corrupt span: end before start must fail the check.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	line := `{"v":1,"seq":0,"type":"span","span":{"id":1048577,"kind":"request","outcome":"ok","start":50,"end":10}}` + "\n"
	if err := os.WriteFile(bad, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", bad}, &stdout, &stderr); err == nil {
		t.Error("-check accepted a span with end before start")
	}

	// A span dump composes with -check/-n only.
	for _, flag := range [][]string{{"-stats"}, {"-type", "collection"}} {
		if err := run(append(flag, path), &stdout, &stderr); err == nil {
			t.Errorf("%v on a span dump not rejected", flag)
		}
	}
	// The payloads say what a file is: there is no -spans flag, and a
	// stream mixing spans with events is neither kind.
	if err := run([]string{"-spans", path}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-spans: %v, want an undefined flag", err)
	}
	mixed := filepath.Join(t.TempDir(), "mixed.jsonl")
	goodSpan := `{"v":1,"seq":0,"type":"span","span":{"id":1048577,"kind":"request","outcome":"ok","start":10,"end":50}}` + "\n"
	event := `{"v":1,"seq":1,"type":"progress","progress":{"step":1000,"collections":0,"phase":"serving","clock":{}}}` + "\n"
	if err := os.WriteFile(mixed, []byte(goodSpan+event), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", mixed}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "span envelopes among") {
		t.Errorf("mixed stream: %v, want it refused", err)
	}
}

// TestObsdumpSpansLimit: -n bounds the span lines, and the stage table
// still follows them.
func TestObsdumpSpansLimit(t *testing.T) {
	path := writeSpanLog(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-n", "1", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	n := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "request ") || strings.HasPrefix(l, "gc ") {
			n++
		}
	}
	if n != 1 {
		t.Errorf("-n 1 printed %d span lines:\n%s", n, out)
	}
	if !strings.Contains(out, "per-stage latency over 2 request spans") {
		t.Errorf("-n 1 dropped the stage table:\n%s", out)
	}
}
