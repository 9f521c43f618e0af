package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	events := r.NewCounter("events_total", "events seen")
	db := r.NewGauge("db_bytes", "database size")

	events.Add(3)
	events.Add(2)
	events.Add(-5)         // counters only go up
	events.Add(math.NaN()) // ignored
	if got := events.Value(); got != 5 {
		t.Errorf("counter = %v, want 5", got)
	}

	db.Set(1024)
	if got := db.Value(); got != 1024 {
		t.Errorf("gauge = %v, want 1024", got)
	}
	db.Set(math.NaN()) // NaN clears to zero
	if got := db.Value(); got != 0 {
		t.Errorf("gauge after NaN = %v, want 0", got)
	}

	// A gauge also moves by deltas, in both directions.
	db.Add(7)
	db.Add(-3)
	db.Add(math.NaN()) // ignored
	if got := db.Value(); got != 4 {
		t.Errorf("gauge after +7 -3 = %v, want 4", got)
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	zgauge := r.NewGauge("zgauge", "a gauge")
	acounter := r.NewCounter("acounter", "a counter")
	mhist := r.NewHistogram("mhist", "a histogram", 0, 10, 2)
	acounter.Add(4)
	zgauge.Set(2.5)
	for _, v := range []float64{-1, 1, 6, 100} { // underflow, both halves, overflow
		mhist.Observe(v)
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
	r.NewHistogram("empty", "", 0, 10, 2)
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
