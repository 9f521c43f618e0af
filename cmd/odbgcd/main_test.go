package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"odbgc/internal/obs"
	"odbgc/internal/server"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown policy", []string{"-policy", "bogus"}, "unknown policy"},
		{"oracle estimator", []string{"-estimator", "oracle"}, "oracle"},
		{"oracle fallback", []string{"-fallback-estimator", "oracle"}, "oracle"},
		{"frac range", []string{"-frac", "1.5"}, "-frac"},
		{"positional args", []string{"stray"}, "usage"},
		{"bad selection", []string{"-selection", "bogus"}, "selection"},
		{"bad geometry", []string{"-page-size", "-1"}, "PageSize"},
		{"bad queue", []string{"-queue-depth", "-5"}, "queue depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			err := run(tc.args, &out, &errb)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// syncBuffer lets the test read the daemon's stdout while it runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var boundRE = regexp.MustCompile(`serving objects on (\S+)`)

// TestDaemonServesAndDrains boots the daemon on an ephemeral port, drives
// real traffic through it, interrupts it, and checks the drain summary and
// manifest — the CLI equivalent of the two-stage shutdown test.
func TestDaemonServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.json")
	events := filepath.Join(dir, "events.jsonl")
	traces := filepath.Join(dir, "traces.jsonl")

	sd := obs.NewShutdown(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- runWithShutdown(sd, []string{
			"-addr", "127.0.0.1:0",
			"-policy", "fixed", "-interval", "4",
			"-page-size", "1024", "-pages-per-partition", "4", "-buffer-pages", "8",
			"-manifest", manifest, "-events", events, "-traces", traces,
		}, &out, io.Discard)
	}()

	// Wait for the bound address to appear on stdout.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if m := boundRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	cli, err := server.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hub, err := cli.Create(ctx, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	prev := uint64(0)
	for i := 0; i < 10; i++ {
		child, err := cli.Create(ctx, 128, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Set(ctx, hub, 0, child); err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if _, err := cli.Do(ctx, server.Request{Op: server.OpUnroot, OID: prev}); err != nil {
				t.Fatal(err)
			}
		}
		prev = child
	}
	st, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Collections == 0 {
		t.Error("daemon ran no online collections under churn at fixed(4)")
	}

	// First interrupt: drain. The daemon must exit cleanly on its own.
	sd.Interrupt()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained daemon returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after interrupt")
	}
	if !strings.Contains(out.String(), "drained:") {
		t.Errorf("no drain summary in output:\n%s", out.String())
	}
	for _, p := range []string{manifest, events, traces} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("artifact %s missing or empty (err=%v)", p, err)
		}
	}

	// The drained span dump is an event stream of span envelopes: it reads
	// back through obs.ReadAll, holds the collections' GC spans, and every
	// GC span's parent request is in it.
	f, err := os.Open(traces)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	envs, err := obs.ReadAll(f)
	if err != nil {
		t.Fatalf("reading the span dump: %v", err)
	}
	spans, gcSpans := make([]*obs.Span, 0, len(envs)), 0
	for _, e := range envs {
		if e.Span == nil {
			t.Fatalf("span dump holds a %q envelope", e.Type)
		}
		spans = append(spans, e.Span)
		if e.Span.Kind == obs.KindGC {
			gcSpans++
		}
	}
	if gcSpans == 0 {
		t.Errorf("span dump of %d spans holds no GC span", len(spans))
	}
	if dangling, err := obs.CheckAll(spans); err != nil || dangling != 0 {
		t.Errorf("CheckAll on the drained dump = (%d dangling, %v), want (0, nil)", dangling, err)
	}
}

func TestBuildPolicyWiresBreaker(t *testing.T) {
	bcfg := server.BreakerConfig{TripAfter: 2, Cooldown: 2, HalfOpenProbes: 1}
	pol, b, err := buildPolicy("saga", 0.1, 0, 0, "fgs-hb", "cgs-cb", 0.8, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if b == nil {
		t.Fatal("saga got no breaker")
	}
	if pol.Name() == "" {
		t.Fatal("policy has no name")
	}
	if !strings.Contains(b.Name(), "fgs-hb") || !strings.Contains(b.Name(), "cgs-cb") {
		t.Fatalf("breaker name %q does not show primary->fallback", b.Name())
	}
	// Policies without estimators get no breaker.
	if _, b, err := buildPolicy("saio", 0.1, 0, 0, "fgs-hb", "cgs-cb", 0.8, bcfg); err != nil || b != nil {
		t.Fatalf("saio: breaker %v, err %v; want none", b, err)
	}
	if _, b, err := buildPolicy("fixed", 0, 100, 0, "fgs-hb", "cgs-cb", 0.8, bcfg); err != nil || b != nil {
		t.Fatalf("fixed: breaker %v, err %v; want none", b, err)
	}
}
