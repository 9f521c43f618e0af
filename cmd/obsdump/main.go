// Command obsdump inspects JSONL event streams: the event logs gcsim -events,
// experiments -events-dir and odbgcd -events write, and the span dumps of the
// flight recorder (odbgcd -traces, /debug/traces). It prints a human-readable
// rendering, per-type counts, or a strict schema/sequence check for CI. The
// payloads say which kind of stream a file holds.
//
// Usage:
//
//	obsdump run.jsonl                 # pretty-print every event
//	obsdump -stats run.jsonl          # per-type counts and run summary only
//	obsdump -check run.jsonl          # validate schema + sequence, print nothing
//	obsdump -type collection run.jsonl
//	obsdump -n 20 run.jsonl
//	obsdump traces.jsonl              # a span dump: one line per span + stage table
//	obsdump -check traces.jsonl       # ... plus span and parent-link checks
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"odbgc/internal/metrics"
	"odbgc/internal/obs"
	"odbgc/internal/simerr"
)

func main() {
	sd := obs.NewShutdown(context.Background())
	stop := sd.Notify()
	defer stop()
	if err := runWithShutdown(sd, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "obsdump:", err)
		os.Exit(1)
	}
}

// run executes the CLI with no signals wired; tests drive it directly.
func run(args []string, stdout, stderr io.Writer) error {
	return runWithShutdown(obs.NewShutdown(context.Background()), args, stdout, stderr)
}

func runWithShutdown(sd *obs.Shutdown, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("obsdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		check    = fs.Bool("check", false, "validate schema version, payloads and sequence numbers; print only a verdict")
		stats    = fs.Bool("stats", false, "print per-type event counts and the run summary instead of every event")
		typeFlag = fs.String("type", "", "print only events of this type (see -check for the list)")
		limit    = fs.Int("n", 0, "print only the first N matching events (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: obsdump [flags] run.jsonl")
	}
	if *limit < 0 {
		return fmt.Errorf("-n must be >= 0 (got %d)", *limit)
	}
	if *typeFlag != "" {
		known := false
		for _, t := range obs.EventTypes() {
			if t == *typeFlag {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("unknown event type %q (have %v)", *typeFlag, obs.EventTypes())
		}
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()

	// ReadAll validates every line (schema version, exactly one payload
	// matching the type tag, contiguous sequence numbers), so -check is just
	// "did it load".
	events, err := obs.ReadAll(f)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	spans := make([]*obs.Span, 0, len(events))
	for _, e := range events {
		if e.Span != nil {
			spans = append(spans, e.Span)
		}
	}
	switch {
	case len(spans) == 0:
	case len(spans) < len(events):
		return fmt.Errorf("%s: %d span envelopes among %d events; a stream is an event log or a span dump", fs.Arg(0), len(spans), len(events)-len(spans))
	case *stats || *typeFlag != "":
		return fmt.Errorf("%s is a span dump: it takes -check and -n only (it always ends with the stage table)", fs.Arg(0))
	default:
		return runSpans(sd, fs.Arg(0), spans, *check, *limit, stdout)
	}
	if *check {
		fmt.Fprintf(stdout, "%s: ok: %d events, schema v%d\n", fs.Arg(0), len(events), obs.SchemaVersion)
		return nil
	}
	if *stats {
		printStats(stdout, events)
		return nil
	}

	printed := 0
	for _, e := range events {
		// Large logs can take a while to render to a slow terminal; stop at
		// the first interrupt instead of insisting on the rest.
		select {
		case <-sd.Draining():
			return simerr.Canceledf("interrupted after %d events", printed)
		default:
		}
		if *typeFlag != "" && e.Type != *typeFlag {
			continue
		}
		if *limit > 0 && printed >= *limit {
			break
		}
		fmt.Fprintf(stdout, "%6d %s\n", e.Seq, render(e))
		printed++
	}
	return nil
}

// render formats one event on a single line.
func render(e *obs.Envelope) string {
	switch e.Type {
	case obs.TypeRunStart:
		s := *e.RunStart
		return fmt.Sprintf("run_start   policy=%s selection=%s preamble=%d", s.Policy, s.Selection, s.Preamble)
	case obs.TypePhase:
		p := *e.Phase
		return fmt.Sprintf("phase       @%d %q collections=%d overwrites=%d", p.Step, p.Label, p.Collections, p.Overwrites)
	case obs.TypeDecision:
		d := *e.Decision
		tag := ""
		if d.Idle {
			tag = " idle"
		}
		return fmt.Sprintf("decision    @%d collected=%v%s db=%dB garbage=%dB est=%.0f target=%.0f next=%d",
			d.Step, d.Collected, tag, d.DBBytes, d.GarbageBytes, float64(d.Estimate), float64(d.Target), d.NextInterval)
	case obs.TypeCollection:
		c := *e.Collection
		return fmt.Sprintf("collection  #%d @%d %s part=%d reclaimed=%dB (%d objs) live=%dB garbage=%.3f interval=%d",
			c.Index, c.Step, c.Phase, c.Partition, c.ReclaimedBytes, c.ReclaimedObjects, c.LiveBytes, float64(c.GarbageFrac), c.Interval)
	case obs.TypeProgress:
		p := *e.Progress
		return fmt.Sprintf("progress    @%d collections=%d phase=%s appio=%d gcio=%d",
			p.Step, p.Collections, p.Phase, p.Clock.AppIO, p.Clock.GCIO)
	case obs.TypeRunEnd:
		r := *e.RunEnd
		return fmt.Sprintf("run_end     events=%d collections=%d gcio=%.4f garbage=%.4f reclaimed=%dB",
			r.Events, r.Collections, float64(r.GCIOFrac), float64(r.GarbageFrac), r.Reclaimed)
	default:
		// ReadAll rejects unknown types; this is unreachable on valid input.
		return e.Type
	}
}

// printStats renders per-type counts, collection-yield and interval
// distributions, and, when present, the run summary. Everything is
// accumulated in a single pass over the log: samples are appended once and
// the histogram buckets are filled once after the range is known, never
// rebuilt per event — large JSONL logs stay O(events).
func printStats(w io.Writer, events []*obs.Envelope) {
	counts := make(map[string]int)
	var end *obs.RunEnd
	var reclaimed, intervals []float64
	for _, e := range events {
		counts[e.Type]++
		switch e.Type {
		case obs.TypeRunEnd:
			end = e.RunEnd
		case obs.TypeCollection:
			c := e.Collection
			reclaimed = append(reclaimed, float64(c.ReclaimedBytes))
			if c.Interval > 0 {
				intervals = append(intervals, float64(c.Interval))
			}
		}
	}
	fmt.Fprintf(w, "events: %d\n", len(events))
	for _, t := range obs.EventTypes() {
		if counts[t] > 0 {
			fmt.Fprintf(w, "  %-11s %d\n", t, counts[t])
		}
	}
	printHistogram(w, "reclaimed bytes per collection", reclaimed)
	printHistogram(w, "steps between collections", intervals)
	if end != nil {
		fmt.Fprintf(w, "summary: %d trace events, %d collections, gc I/O %.2f%%, garbage %.2f%%, reclaimed %dB\n",
			end.Events, end.Collections, float64(end.GCIOFrac)*100, float64(end.GarbageFrac)*100, end.Reclaimed)
	}
}

// printHistogram buckets the samples over their observed range and renders
// the distribution. Fewer than two samples have no distribution to show.
func printHistogram(w io.Writer, title string, samples []float64) {
	if len(samples) < 2 {
		return
	}
	lo, hi := samples[0], samples[0]
	for _, v := range samples[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo == hi {
		fmt.Fprintf(w, "%s: %d samples, all %.0f\n", title, len(samples), lo)
		return
	}
	n := 10
	if len(samples) < n {
		n = len(samples)
	}
	// hi is nudged up so the maximum lands in the top bucket, not overflow.
	h, err := metrics.NewHistogram(lo, hi*(1+1e-9)+1e-9, n)
	if err != nil {
		return
	}
	for _, v := range samples {
		h.Add(v)
	}
	fmt.Fprintf(w, "%s (%d samples, mean %.1f):\n%s", title, h.N(), h.Mean(), h.String())
}
