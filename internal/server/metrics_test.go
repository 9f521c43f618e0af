package server

import (
	"fmt"
	"strings"
	"testing"

	"odbgc/internal/obs"
	"odbgc/internal/storage/disk"
)

// TestGCPauseHistogramResolvesAPause: a collection pause is around 0.1 ms,
// so the histogram it lands in must tell 100 µs from 400 µs (it was
// registered over 0-100 ms in 5 ms buckets, where every pause fell in the
// first), and still catch a pathological pause in the overflow bucket.
func TestGCPauseHistogramResolvesAPause(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	m.Stage(MetricGCPause, 0.1, 1)
	m.Stage(MetricGCPause, 0.4, 2)
	m.Stage(MetricGCPause, 50, 3)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	// firstAt[k] is the first (cumulative) bucket holding k+1 samples.
	var firstAt [3]string
	for _, line := range strings.Split(sb.String(), "\n") {
		var le string
		var cum int
		if !strings.HasPrefix(line, MetricGCPause+"_bucket{") {
			continue
		}
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, MetricGCPause+"_bucket"), "{le=%q} %d", &le, &cum); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		for k := range firstAt {
			if firstAt[k] == "" && cum > k {
				firstAt[k] = le
			}
		}
	}
	if firstAt[0] == "" || firstAt[0] == firstAt[1] {
		t.Errorf("100 µs and 400 µs pauses share bucket le=%q", firstAt[0])
	}
	if firstAt[1] == "+Inf" || firstAt[2] != "+Inf" {
		t.Errorf("400 µs pause in le=%q, 50 ms pause in le=%q; want a finite bucket and +Inf", firstAt[1], firstAt[2])
	}
	if !strings.Contains(sb.String(), `span_id="`) {
		t.Error("pause buckets carry no span-ID exemplars")
	}
}

// TestLevelGaugesCountInAndOut: open sessions and requests in flight are
// levels moved by +1 and -1. (They went through the counter path, which
// updates no gauge and drops a negative delta, and read 0 for good.)
func TestLevelGaugesCountInAndOut(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	levels := func() [2]float64 {
		return [2]float64{reg.Gauge(MetricSessionsActive), reg.Gauge(MetricInflight)}
	}
	m.SessionStart()
	m.SessionStart()
	m.RequestStart()
	if got := levels(); got != [2]float64{2, 1} {
		t.Errorf("two sessions open, one request in flight: gauges read %v", got)
	}
	m.RequestEnd(0.5)
	m.SessionEnd()
	if got := levels(); got != [2]float64{1, 0} {
		t.Errorf("one session left, no request in flight: gauges read %v", got)
	}
	m.SessionEnd()
	if got := levels(); got != [2]float64{0, 0} {
		t.Errorf("everything retired: gauges read %v", got)
	}
	if s, r := reg.Counter(MetricSessionsTotal), reg.Counter(MetricRequests); s != 2 || r != 1 {
		t.Errorf("totals: %v sessions, %v requests; want 2 and 1", s, r)
	}
	var nop *Metrics // the no-op sink takes the same calls
	nop.SessionStart()
	nop.RequestStart()
	nop.RequestEnd(1)
	nop.SessionEnd()
}

// TestRecoveryObservePublishesFallback: the meta-fallback gauge reads 1 when
// the other slot's checkpoint served and 0 when it did not, beside the torn
// tail's.
func TestRecoveryObservePublishesFallback(t *testing.T) {
	for _, fallback := range []bool{true, false} {
		reg := obs.NewRegistry()
		m := NewMetrics(reg)
		m.RecoveryObserve(&disk.RecoveryInfo{MetaFallback: fallback, TornTail: !fallback, Objects: 7}, 1.5, 2.5)
		want := map[string]float64{MetricRecoveryFallback: flag(fallback), MetricRecoveryTornTail: flag(!fallback), MetricRecoveryObjects: 7}
		for name, v := range want {
			if got := reg.Gauge(name); got != v {
				t.Errorf("fallback %v: %s = %v, want %v", fallback, name, got, v)
			}
		}
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf("%s %v\n", MetricRecoveryFallback, flag(fallback)); !strings.Contains(sb.String(), line) {
			t.Errorf("fallback %v: /metrics text lacks %q", fallback, line)
		}
	}
}
