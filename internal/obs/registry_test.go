package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterCounter("events_total", "events seen"); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterGauge("db_bytes", "database size"); err != nil {
		t.Fatal(err)
	}

	r.Add("events_total", 3)
	r.Add("events_total", 2)
	r.Add("events_total", -5)         // counters only go up
	r.Add("events_total", math.NaN()) // ignored
	if got := r.Counter("events_total"); got != 5 {
		t.Errorf("counter = %v, want 5", got)
	}

	r.Set("db_bytes", 1024)
	if got := r.Gauge("db_bytes"); got != 1024 {
		t.Errorf("gauge = %v, want 1024", got)
	}
	r.Set("db_bytes", math.NaN()) // NaN clears to zero
	if got := r.Gauge("db_bytes"); got != 0 {
		t.Errorf("gauge after NaN = %v, want 0", got)
	}

	// A gauge also moves by deltas, in both directions.
	r.AddGauge("db_bytes", 7)
	r.AddGauge("db_bytes", -3)
	r.AddGauge("db_bytes", math.NaN()) // ignored
	if got := r.Gauge("db_bytes"); got != 4 {
		t.Errorf("gauge after +7 -3 = %v, want 4", got)
	}
	r.Set("db_bytes", 0)

	// Cross-kind updates are ignored, not misapplied.
	r.Add("db_bytes", 7)
	r.Set("events_total", 99)
	r.AddGauge("events_total", 1)
	if r.Gauge("db_bytes") != 0 || r.Counter("events_total") != 5 {
		t.Error("cross-kind update leaked through")
	}
	// Unregistered names are silently ignored.
	r.Add("nope", 1)
	r.Set("nope", 1)
	r.Observe("nope", 1)
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "9lives", "has-dash", "sp ace", "ünicode"} {
		if err := r.RegisterCounter(name, ""); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	if err := r.RegisterCounter("x", ""); err != nil {
		t.Fatal(err)
	}
	// Re-registering the same kind is idempotent; a different kind errors.
	if err := r.RegisterCounter("x", ""); err != nil {
		t.Errorf("idempotent re-register failed: %v", err)
	}
	if err := r.RegisterGauge("x", ""); err == nil {
		t.Error("kind change accepted")
	}
	// A bad histogram range must not leave a half-registered name behind.
	if err := r.RegisterHistogram("h", "", 5, 5, 10); err == nil {
		t.Error("empty histogram range accepted")
	}
	if err := r.RegisterGauge("h", ""); err != nil {
		t.Errorf("name not released after failed histogram registration: %v", err)
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterGauge("zgauge", "a gauge"); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterCounter("acounter", "a counter"); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterHistogram("mhist", "a histogram", 0, 10, 2); err != nil {
		t.Fatal(err)
	}
	r.Add("acounter", 4)
	r.Set("zgauge", 2.5)
	for _, v := range []float64{-1, 1, 6, 100} { // underflow, both halves, overflow
		r.Observe("mhist", v)
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := strings.Join([]string{
		"# HELP acounter a counter",
		"# TYPE acounter counter",
		"acounter 4",
		"# HELP mhist a histogram",
		"# TYPE mhist histogram",
		`mhist_bucket{le="5"} 2`,
		`mhist_bucket{le="10"} 3`,
		`mhist_bucket{le="+Inf"} 4`,
		"mhist_sum 106",
		"mhist_count 4",
		"# HELP zgauge a gauge",
		"# TYPE zgauge gauge",
		"zgauge 2.5",
		"",
	}, "\n")
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Deterministic: a second render is byte-identical.
	var again bytes.Buffer
	if err := r.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != got {
		t.Error("repeated WriteText differs")
	}
}

func TestRegistryEmptyHistogramExposition(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterHistogram("empty", "", 0, 10, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Errorf("empty histogram leaked NaN:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "empty_sum 0\n") {
		t.Errorf("empty histogram sum not zero:\n%s", buf.String())
	}
}
