package main

import (
	"fmt"
	"io"
	"slices"

	"odbgc/internal/obs"
	"odbgc/internal/simerr"
)

// runSpans renders a span dump from the flight recorder (odbgcd -traces or
// a /debug/traces scrape): the spans of a stream whose every envelope
// carries one. -check validates structure and parent links; otherwise every
// span is rendered followed by per-stage latency percentiles and a
// critical-path breakdown over the request spans.
func runSpans(sd *obs.Shutdown, path string, spans []*obs.Span, check bool, limit int, stdout io.Writer) error {
	// CheckAll re-verifies every span and the ID space, and counts GC spans
	// whose parent request aged out of the dump (expected in mid-load
	// scrapes, suspicious in post-drain dumps).
	dangling, err := obs.CheckAll(spans)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	requests, gcs := 0, 0
	for _, sp := range spans {
		if sp.Kind == obs.KindGC {
			gcs++
		} else {
			requests++
		}
	}
	if check {
		fmt.Fprintf(stdout, "%s: ok: %d spans (%d requests, %d gc, %d dangling parents), schema v%d\n",
			path, len(spans), requests, gcs, dangling, obs.SchemaVersion)
		return nil
	}

	printed := 0
	for _, sp := range spans {
		select {
		case <-sd.Draining():
			return simerr.Canceledf("interrupted after %d spans", printed)
		default:
		}
		if limit > 0 && printed >= limit {
			break
		}
		fmt.Fprintln(stdout, renderSpan(sp))
		printed++
	}
	printStageTable(stdout, spans)
	if dangling > 0 {
		fmt.Fprintf(stdout, "note: %d gc spans reference requests that aged out of this dump\n", dangling)
	}
	return nil
}

// renderSpan formats one span on a single line.
func renderSpan(sp *obs.Span) string {
	if sp.Kind == obs.KindGC {
		line := fmt.Sprintf("gc      %016x pause=%-6d part=%-3d reclaimed=%dB (%d objs) traced=%d",
			sp.ID, sp.Stages[obs.StageService], sp.Partition, sp.ReclaimedBytes, sp.ReclaimedObjects, sp.TracedObjects)
		if sp.Parent != 0 {
			line += fmt.Sprintf(" during=%016x", sp.Parent)
		}
		if sp.QueuedBehind > 0 {
			line += fmt.Sprintf(" queued-behind=%d", sp.QueuedBehind)
		}
		if sp.Breaker != "" {
			line += " breaker=" + sp.Breaker
		}
		if sp.Outcome != obs.OutcomeOK {
			line += " outcome=" + sp.Outcome
		}
		return line
	}
	line := fmt.Sprintf("request %016x sess=%-3d seq=%-4d op=%-7s %-7s dur=%-8d", sp.ID, sp.Session, sp.Seq, sp.Op, sp.Outcome, sp.Duration())
	for st := 0; st < obs.NumStages; st++ {
		if sp.Stages[st] > 0 {
			line += fmt.Sprintf(" %s=%d", obs.StageName(st), sp.Stages[st])
		}
	}
	if sp.Pinned {
		line += " pinned"
	}
	return line
}

// printStageTable renders per-stage latency percentiles over the request
// spans (in recorder ticks) plus, per request, which stage dominated — the
// critical path tells overloaded-queue and slow-engine stories apart at a
// glance.
func printStageTable(w io.Writer, spans []*obs.Span) {
	var vals [obs.NumStages][]int64
	var critical [obs.NumStages]int
	requests := 0
	for _, sp := range spans {
		if sp.Kind != obs.KindRequest {
			continue
		}
		requests++
		best, bestVal := -1, int64(0)
		for st := 0; st < obs.NumStages; st++ {
			if v := sp.Stages[st]; v > 0 {
				vals[st] = append(vals[st], v)
				if v > bestVal {
					best, bestVal = st, v
				}
			}
		}
		if best >= 0 {
			critical[best]++
		}
	}
	if requests == 0 {
		return
	}
	fmt.Fprintf(w, "\nper-stage latency over %d request spans (ticks):\n", requests)
	fmt.Fprintf(w, "  %-8s %6s %10s %10s %10s %10s\n", "stage", "count", "p50", "p90", "p99", "max")
	for st := 0; st < obs.NumStages; st++ {
		vs := vals[st]
		if len(vs) == 0 {
			continue
		}
		slices.Sort(vs)
		fmt.Fprintf(w, "  %-8s %6d %10d %10d %10d %10d\n", obs.StageName(st), len(vs),
			pct(vs, 50), pct(vs, 90), pct(vs, 99), vs[len(vs)-1])
	}
	fmt.Fprintf(w, "critical path (dominant stage per request):")
	for st := 0; st < obs.NumStages; st++ {
		if critical[st] > 0 {
			fmt.Fprintf(w, " %s=%d", obs.StageName(st), critical[st])
		}
	}
	fmt.Fprintln(w)
}

// pct reads the p-th percentile from an already-sorted sample.
func pct(sorted []int64, p int) int64 {
	return sorted[(len(sorted)-1)*p/100]
}
