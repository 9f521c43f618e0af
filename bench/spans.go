package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// spanRec is one span of the traced pass: a name whose prefix up to the first
// dot is the layer, start and end in nanoseconds since the log's epoch, the
// span that caused it, and the request ordinal or trace event index that all
// spans of one operation share.
type spanRec struct {
	name       string
	start, end int64
	parent     int32 // handle of the causing span; 0 for a root
	id         uint64
}

// spanLog is the in-memory span store of a traced pass. It is preallocated so
// recording never allocates, handed out slot by slot through an atomic cursor
// so the client goroutine and the engine goroutine can both record, and
// written out only when the workload ends. A nil log records nothing: the
// wrappers that feed it run in untraced passes too.
type spanLog struct {
	epoch   time.Time
	recs    []spanRec
	next    atomic.Int64
	dropped atomic.Int64
	// off suspends recording (set-up and verification traffic of a serve
	// pass); begin then hands out the null handle, which end ignores.
	off atomic.Bool
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{epoch: time.Now(), recs: make([]spanRec, capacity)}
}

// begin opens a span and returns its handle (index+1), or 0 when the log is
// nil or full. The slot belongs to the caller until end.
func (l *spanLog) begin(name string, parent int32, id uint64) int32 {
	if l == nil || l.off.Load() {
		return 0
	}
	i := l.next.Add(1) - 1
	if i >= int64(len(l.recs)) {
		l.dropped.Add(1)
		return 0
	}
	l.recs[i] = spanRec{name: name, start: int64(time.Since(l.epoch)), parent: parent, id: id}
	return int32(i + 1)
}

// end closes the span behind handle h.
func (l *spanLog) end(h int32) {
	if l == nil || h == 0 {
		return
	}
	l.recs[h-1].end = int64(time.Since(l.epoch))
}

// spans returns the recorded spans; call only after every recorder stopped.
func (l *spanLog) spans() []spanRec {
	if l == nil {
		return nil
	}
	n := l.next.Load()
	if n > int64(len(l.recs)) {
		n = int64(len(l.recs))
	}
	return l.recs[:n]
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Count   int
	TotalNs int64 // sum of durations
	SelfNs  int64 // durations minus the part child spans cover
}

// selfTimes computes, per span name, the total and self time. A span's self
// time is its duration minus the part of its own interval that its children
// cover; a child running after its parent ended (a collection caused by a
// request that was already answered) takes nothing from the parent.
func selfTimes(spans []spanRec) map[string]selfStat {
	covered := make([]int64, len(spans))
	for _, c := range spans {
		if c.parent == 0 {
			continue
		}
		p := spans[c.parent-1]
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if hi > lo {
			covered[c.parent-1] += hi - lo
		}
	}
	out := make(map[string]selfStat)
	for i, s := range spans {
		st := out[s.name]
		st.Count++
		st.TotalNs += s.end - s.start
		st.SelfNs += s.end - s.start - covered[i]
		out[s.name] = st
	}
	return out
}

// layerOf is the module a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelfNs sums self time per layer.
func layerSelfNs(stats map[string]selfStat) map[string]int64 {
	out := make(map[string]int64)
	for name, st := range stats {
		out[layerOf(name)] += st.SelfNs
	}
	return out
}

// rootNs sums the durations of the spans nothing caused.
func rootNs(spans []spanRec) int64 {
	var sum int64
	for _, s := range spans {
		if s.parent == 0 {
			sum += s.end - s.start
		}
	}
	return sum
}

// writeJSONL writes one JSON object per span.
func writeSpansJSONL(path string, spans []spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 160)
	for i, s := range spans {
		buf = append(buf[:0], `{"span":`...)
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, s.name...)
		buf = append(buf, `","layer":"`...)
		buf = append(buf, layerOf(s.name)...)
		buf = append(buf, `","start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"id":`...)
		buf = strconv.AppendUint(buf, s.id, 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// printSelfTable prints the per-name self-time table of a traced pass.
func printSelfTable(stats map[string]selfStat, wallNs int64) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-28s %10s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, n := range names {
		st := stats[n]
		fmt.Printf("  %-28s %10d %12.2f %12.2f %6.1f%%\n", n, st.Count,
			float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6, 100*ratio(float64(st.SelfNs), float64(wallNs)))
	}
}
