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

// Registry is a small in-process metrics registry: counters, gauges and
// histograms with Prometheus text-format exposition. Each New* call declares
// one metric and returns its typed handle, and every update goes through a
// handle, so a metric is named once, where it is declared. It is safe for
// concurrent use (the simulation goroutine updates while an HTTP scraper
// reads): every handle updates under the registry's one mutex. Names follow
// Prometheus conventions ([a-zA-Z_:][a-zA-Z0-9_:]*) and are unique within a
// registry; the tests that scrape each registry hold both rules.
type Registry struct {
	mu      sync.Mutex
	metrics []metric // sorted by name, the exposition order
}

// metric is one declared family: its name and how it renders.
type metric interface {
	metricName() string
	// write renders the family into buf; the caller holds Registry.mu.
	write(buf *bytes.Buffer)
}

// desc is what every family has: its registry, name and help text.
type desc struct {
	r          *Registry
	name, help string
}

func (d *desc) metricName() string { return d.name }

// writeHead renders the family's HELP and TYPE lines.
func (d *desc) writeHead(buf *bytes.Buffer, kind string) {
	if d.help != "" {
		fmt.Fprintf(buf, "# HELP %s %s\n", d.name, d.help)
	}
	fmt.Fprintf(buf, "# TYPE %s %s\n", d.name, kind)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// declare files m in name order.
func (r *Registry) declare(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := m.metricName()
	i := sort.Search(len(r.metrics), func(i int) bool { return r.metrics[i].metricName() > name })
	r.metrics = append(r.metrics, nil)
	copy(r.metrics[i+1:], r.metrics[i:])
	r.metrics[i] = m
}

// Counter is a monotonically increasing counter.
type Counter struct {
	desc
	v float64
}

// NewCounter declares a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{desc: desc{r: r, name: name, help: help}}
	r.declare(c)
	return c
}

// Add increments the counter by v (negative or NaN v is ignored: counters
// only go up).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	c.r.mu.Lock()
	c.v += v
	c.r.mu.Unlock()
}

// Value returns the counter's current value.
func (c *Counter) Value() float64 {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return c.v
}

func (c *Counter) write(buf *bytes.Buffer) {
	c.writeHead(buf, "counter")
	fmt.Fprintf(buf, "%s %s\n", c.name, fmtValue(c.v))
}

// Gauge is a value that goes up and down.
type Gauge struct {
	desc
	v float64
}

// NewGauge declares a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{desc: desc{r: r, name: name, help: help}}
	r.declare(g)
	return g
}

// Set updates the gauge. NaN clears it to zero so exposition never emits
// unparsable values.
func (g *Gauge) Set(v float64) {
	if math.IsNaN(v) {
		v = 0
	}
	g.r.mu.Lock()
	g.v = v
	g.r.mu.Unlock()
}

// Add moves the gauge by delta, up or down (NaN is ignored): the form for a
// level that is counted in and out (open sessions, requests in flight) and
// not read from a source of truth.
func (g *Gauge) Add(delta float64) {
	if math.IsNaN(delta) {
		return
	}
	g.r.mu.Lock()
	g.v += delta
	g.r.mu.Unlock()
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	return g.v
}

func (g *Gauge) write(buf *bytes.Buffer) {
	g.writeHead(buf, "gauge")
	fmt.Fprintf(buf, "%s %s\n", g.name, fmtValue(g.v))
}

// Histogram is a distribution over fixed-width buckets.
type Histogram struct {
	desc
	h *metrics.Histogram
	// exemplars holds, per bucket, the most recent (span ID, value) seen
	// there, at index bucket+1 so the underflow bucket (-1) has a slot; a
	// zero ID is an empty slot. Sized at declaration, so ObserveExemplar
	// never allocates on the hot path.
	exemplars []exemplar
}

// exemplar ties a histogram bucket to the span that last landed in it,
// stored raw (formatting happens only at exposition time).
type exemplar struct {
	id uint64
	v  float64
}

// NewHistogram declares a histogram with n fixed-width buckets over
// [min, max); samples outside the range land in the implicit edge buckets.
// It requires n >= 1 and min < max, which every declaration states as
// constants and the tests that scrape each registry exercise.
func (r *Registry) NewHistogram(name, help string, min, max float64, n int) *Histogram {
	h, _ := metrics.NewHistogram(min, max, n)
	hi := &Histogram{desc: desc{r: r, name: name, help: help}, h: h, exemplars: make([]exemplar, n+2)}
	r.declare(hi)
	return hi
}

// Observe records a sample (NaN is ignored).
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveExemplar records a sample and, when id is nonzero, remembers it as
// its bucket's exemplar — the span ID rendered next to that bucket in
// WriteText, so an operator can jump from a latency bucket to the exact
// trace that landed there. Allocation-free.
func (h *Histogram) ObserveExemplar(v float64, id uint64) {
	if math.IsNaN(v) {
		return
	}
	h.r.mu.Lock()
	h.h.Add(v)
	if id != 0 {
		h.exemplars[h.h.Index(v)+1] = exemplar{id: id, v: v}
	}
	h.r.mu.Unlock()
}

// Value returns the histogram's sample count and sum, its _count and _sum.
func (h *Histogram) Value() (n int, sum float64) {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.h.N(), h.sum()
}

func (h *Histogram) sum() float64 {
	if h.h.N() == 0 {
		return 0
	}
	return h.h.Mean() * float64(h.h.N())
}

// write renders the histogram as cumulative le-labelled buckets plus _sum
// and _count, mapping the underflow bucket into the first bound and the
// overflow bucket into +Inf, per the Prometheus data model. Buckets with a
// recorded exemplar get an OpenMetrics-style exemplar suffix
// (`# {span_id="…"} value`) naming the last span that landed there; the
// underflow exemplar rides on the first bucket, the overflow one on +Inf.
func (h *Histogram) write(buf *bytes.Buffer) {
	h.writeHead(buf, "histogram")
	suffix := func(i int) string {
		ex := h.exemplars[i+1]
		if ex.id == 0 && i == 0 {
			ex = h.exemplars[0]
		}
		if ex.id == 0 {
			return ""
		}
		return fmt.Sprintf(" # {span_id=\"%016x\"} %s", ex.id, fmtValue(ex.v))
	}
	under, _ := h.h.Outliers()
	cum := under
	for i := 0; i < h.h.Buckets(); i++ {
		c, _, hi := h.h.Bucket(i)
		cum += c
		fmt.Fprintf(buf, "%s_bucket{le=%q} %d%s\n", h.name, fmtValue(hi), cum, suffix(i))
	}
	fmt.Fprintf(buf, "%s_bucket{le=\"+Inf\"} %d%s\n", h.name, h.h.N(), suffix(h.h.Buckets()))
	fmt.Fprintf(buf, "%s_sum %s\n", h.name, fmtValue(h.sum()))
	fmt.Fprintf(buf, "%s_count %d\n", h.name, h.h.N())
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
	for _, m := range r.metrics {
		m.write(&buf)
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}
