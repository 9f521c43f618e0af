package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if !math.IsNaN(m.Value()) || !math.IsNaN(m.Min()) || !math.IsNaN(m.Max()) {
		t.Error("empty mean not NaN")
	}
	for _, v := range []float64{2, 4, 9} {
		m.Add(v)
	}
	if m.N() != 3 || m.Value() != 5 || m.Min() != 2 || m.Max() != 9 {
		t.Errorf("mean = %v [%v,%v] n=%d", m.Value(), m.Min(), m.Max(), m.N())
	}
}

func TestMeanMerge(t *testing.T) {
	var a, b Mean
	a.Add(1)
	a.Add(3)
	b.Add(5)
	b.Add(7)
	a.Merge(b)
	if a.N() != 4 || a.Value() != 4 || a.Min() != 1 || a.Max() != 7 {
		t.Errorf("merged = %v [%v,%v] n=%d", a.Value(), a.Min(), a.Max(), a.N())
	}
	// Merging empty is a no-op; merging into empty copies.
	var e Mean
	a.Merge(e)
	if a.N() != 4 {
		t.Error("merge of empty changed state")
	}
	e.Merge(a)
	if e.N() != 4 || e.Value() != 4 {
		t.Error("merge into empty did not copy")
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestMeanMergeProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		clean := func(vs []float64) []float64 {
			out := vs[:0]
			for _, v := range vs {
				if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
					out = append(out, v)
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, all Mean
		for _, v := range xs {
			a.Add(v)
			all.Add(v)
		}
		for _, v := range ys {
			b.Add(v)
			all.Add(v)
		}
		a.Merge(b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		return math.Abs(a.Value()-all.Value()) < 1e-6 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAggregated(t *testing.T) {
	a := Aggregated([]float64{1, 2, math.NaN(), 3})
	if a.N != 3 || a.Mean != 2 || a.Min != 1 || a.Max != 3 {
		t.Errorf("aggregate = %+v", a)
	}
	empty := Aggregated(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Errorf("empty aggregate = %+v", empty)
	}
	if !strings.Contains(a.String(), "2.0000") {
		t.Errorf("String = %q", a.String())
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "y"}
	s.Add(1, 10)
	s.Add(2, 20)
	if s.Len() != 2 || s.Points[1] != (Point{2, 20}) {
		t.Errorf("series = %+v", s)
	}
}

func TestCSV(t *testing.T) {
	a := &Series{Name: "a"}
	a.Add(1, 10)
	a.Add(2, 20)
	b := &Series{Name: "b"}
	b.Add(1, 30)
	got := CSV("x", a, b)
	want := "x,a,b\n1,10,30\n2,20,\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "12345")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name ") || !strings.Contains(lines[0], "value") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "-----") {
		t.Errorf("separator = %q", lines[1])
	}
	// Columns align: "value" column starts at the same offset in each row.
	idx := strings.Index(lines[0], "value")
	if lines[2][idx:idx+1] != "1" || lines[3][idx:idx+5] != "12345" {
		t.Errorf("misaligned table:\n%s", out)
	}
}

// TestCSVRagged exercises rows where the first series has no point but a
// later one does: the X cell must come from the longest series, not go blank.
func TestCSVRagged(t *testing.T) {
	short := &Series{Name: "short"}
	short.Add(1, 10)
	long := &Series{Name: "long"}
	long.Add(1, 30)
	long.Add(2, 40)
	long.Add(3, 50)
	got := CSV("x", short, long)
	want := "x,short,long\n1,10,30\n2,,40\n3,,50\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestCSVEmpty(t *testing.T) {
	if got := CSV("x"); got != "x\n" {
		t.Errorf("no-series CSV = %q", got)
	}
	empty := &Series{Name: "e"}
	if got := CSV("x", empty); got != "x,e\n" {
		t.Errorf("empty-series CSV = %q", got)
	}
	one := &Series{Name: "a"}
	one.Add(5, 7)
	if got := CSV("x", empty, one); got != "x,e,a\n5,,7\n" {
		t.Errorf("empty+nonempty CSV = %q", got)
	}
}
