package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"odbgc/internal/metrics"
)

// Registry is a small in-process metrics registry: named counters, gauges,
// and histograms with Prometheus text-format exposition. It is safe for
// concurrent use (the simulation goroutine updates while an HTTP scraper
// reads). Metric names follow Prometheus conventions
// ([a-zA-Z_:][a-zA-Z0-9_:]*); Register* reports invalid names as errors.
type Registry struct {
	mu     sync.Mutex
	order  []string // registration order is irrelevant; exposition sorts
	kinds  map[string]string
	help   map[string]string
	counts map[string]float64
	gauges map[string]float64
	hists  map[string]*metrics.Histogram
	// exemplars holds, per histogram, the most recent (span ID, value) seen
	// in each bucket index; the inner maps are preallocated at registration
	// so ObserveExemplar never allocates on the hot path.
	exemplars map[string]map[int]exemplar
}

// exemplar ties a histogram bucket to the span that last landed in it,
// stored raw (formatting happens only at exposition time).
type exemplar struct {
	id uint64
	v  float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:     make(map[string]string),
		help:      make(map[string]string),
		counts:    make(map[string]float64),
		gauges:    make(map[string]float64),
		hists:     make(map[string]*metrics.Histogram),
		exemplars: make(map[string]map[int]exemplar),
	}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(name, kind, help string) error {
	if !validName(name) {
		return fmt.Errorf("obs: invalid metric name %q", name)
	}
	if prev, ok := r.kinds[name]; ok {
		if prev != kind {
			return fmt.Errorf("obs: metric %q already registered as %s", name, prev)
		}
		return nil
	}
	r.kinds[name] = kind
	r.help[name] = help
	r.order = append(r.order, name)
	return nil
}

// RegisterCounter declares a monotonically increasing counter.
func (r *Registry) RegisterCounter(name, help string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.register(name, "counter", help)
}

// RegisterGauge declares a gauge.
func (r *Registry) RegisterGauge(name, help string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.register(name, "gauge", help)
}

// RegisterHistogram declares a histogram with n fixed-width buckets over
// [min, max); samples outside the range land in the implicit edge buckets.
func (r *Registry) RegisterHistogram(name, help string, min, max float64, n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.register(name, "histogram", help); err != nil {
		return err
	}
	if r.hists[name] == nil {
		h, err := metrics.NewHistogram(min, max, n)
		if err != nil {
			delete(r.kinds, name)
			delete(r.help, name)
			r.order = r.order[:len(r.order)-1]
			return err
		}
		r.hists[name] = h
		r.exemplars[name] = make(map[int]exemplar, n+2)
	}
	return nil
}

// Add increments a registered counter by v (negative v is ignored: counters
// only go up). Unregistered names are ignored so hot paths need no error
// handling.
func (r *Registry) Add(name string, v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	r.mu.Lock()
	if r.kinds[name] == "counter" {
		r.counts[name] += v
	}
	r.mu.Unlock()
}

// Set updates a registered gauge. NaN clears it to zero so exposition never
// emits unparsable values.
func (r *Registry) Set(name string, v float64) {
	if math.IsNaN(v) {
		v = 0
	}
	r.mu.Lock()
	if r.kinds[name] == "gauge" {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// AddGauge moves a registered gauge by delta, up or down: the form for a
// level that is counted in and out (open sessions, requests in flight) and
// not read from a source of truth.
func (r *Registry) AddGauge(name string, delta float64) {
	if math.IsNaN(delta) {
		return
	}
	r.mu.Lock()
	if r.kinds[name] == "gauge" {
		r.gauges[name] += delta
	}
	r.mu.Unlock()
}

// Observe records a sample into a registered histogram.
func (r *Registry) Observe(name string, v float64) {
	if math.IsNaN(v) {
		return
	}
	r.mu.Lock()
	if h := r.hists[name]; h != nil {
		h.Add(v)
	}
	r.mu.Unlock()
}

// ObserveExemplar records a sample into a registered histogram and, when
// id is nonzero, remembers it as the bucket's exemplar — the span ID
// rendered next to that bucket in WriteText, so an operator can jump from a
// latency bucket to the exact trace that landed there. Allocation-free:
// the inner map is preallocated and bounded by the bucket count.
func (r *Registry) ObserveExemplar(name string, v float64, id uint64) {
	if math.IsNaN(v) {
		return
	}
	r.mu.Lock()
	if h := r.hists[name]; h != nil {
		h.Add(v)
		if id != 0 {
			r.exemplars[name][h.Index(v)] = exemplar{id: id, v: v}
		}
	}
	r.mu.Unlock()
}

// Counter returns a counter's current value (zero when absent).
func (r *Registry) Counter(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// Gauge returns a gauge's current value (zero when absent).
func (r *Registry) Gauge(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// fmtValue renders a sample value the way Prometheus expects.
func fmtValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in the Prometheus text exposition format,
// metrics sorted by name so output is deterministic. Rendering happens into
// an in-memory buffer under the lock and the single write to w happens
// after release: WriteText serves scrapes over HTTP, and a slow scraper
// must not stall every metric update behind r.mu.
func (r *Registry) WriteText(w io.Writer) error {
	var buf bytes.Buffer
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, name := range names {
		kind := r.kinds[name]
		if help := r.help[name]; help != "" {
			fmt.Fprintf(&buf, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(&buf, "# TYPE %s %s\n", name, kind)
		switch kind {
		case "counter":
			fmt.Fprintf(&buf, "%s %s\n", name, fmtValue(r.counts[name]))
		case "gauge":
			fmt.Fprintf(&buf, "%s %s\n", name, fmtValue(r.gauges[name]))
		case "histogram":
			writeHistogram(&buf, name, r.hists[name], r.exemplars[name])
		}
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// writeHistogram renders one histogram as cumulative le-labelled buckets
// plus _sum and _count, mapping the underflow bucket into the first bound
// and the overflow bucket into +Inf, per the Prometheus data model. Buckets
// with a recorded exemplar get an OpenMetrics-style exemplar suffix
// (`# {span_id="…"} value`) naming the last span that landed there; the
// underflow exemplar rides on the first bucket, the overflow one on +Inf.
// The buffer parameter (not an io.Writer) keeps the rendering loop free of
// real I/O, so it is safe to run while the registry lock is held.
func writeHistogram(buf *bytes.Buffer, name string, h *metrics.Histogram, exs map[int]exemplar) {
	suffix := func(i int) string {
		ex, ok := exs[i]
		if !ok && i == 0 {
			ex, ok = exs[-1]
		}
		if !ok {
			return ""
		}
		return fmt.Sprintf(" # {span_id=\"%016x\"} %s", ex.id, fmtValue(ex.v))
	}
	under, _ := h.Outliers()
	cum := under
	for i := 0; i < h.Buckets(); i++ {
		c, _, hi := h.Bucket(i)
		cum += c
		fmt.Fprintf(buf, "%s_bucket{le=%q} %d%s\n", name, fmtValue(hi), cum, suffix(i))
	}
	fmt.Fprintf(buf, "%s_bucket{le=\"+Inf\"} %d%s\n", name, h.N(), suffix(h.Buckets()))
	sum := 0.0
	if h.N() > 0 {
		sum = h.Mean() * float64(h.N())
	}
	fmt.Fprintf(buf, "%s_sum %s\n", name, fmtValue(sum))
	fmt.Fprintf(buf, "%s_count %d\n", name, h.N())
}
