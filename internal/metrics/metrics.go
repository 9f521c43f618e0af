// Package metrics provides the small statistics toolkit the simulator and
// the experiment harness share: streaming means, per-run aggregation with
// min/max error bars (the paper reports the mean of 10 runs with min/max
// bars), and plain-text table/series rendering.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Mean accumulates a streaming arithmetic mean.
type Mean struct {
	n   int
	sum float64
	min float64
	max float64
}

// Add incorporates one sample.
func (m *Mean) Add(v float64) {
	if m.n == 0 {
		m.min, m.max = v, v
	} else {
		if v < m.min {
			m.min = v
		}
		if v > m.max {
			m.max = v
		}
	}
	m.n++
	m.sum += v
}

// N returns the sample count.
func (m *Mean) N() int { return m.n }

// Value returns the mean, or NaN with no samples.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.sum / float64(m.n)
}

// Min returns the smallest sample, or NaN with no samples.
func (m *Mean) Min() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.min
}

// Max returns the largest sample, or NaN with no samples.
func (m *Mean) Max() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.max
}

// Merge folds another accumulator into m, as if m had seen o's samples.
func (m *Mean) Merge(o Mean) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n += o.n
	m.sum += o.sum
}

// Aggregate summarizes one value across runs: the mean with min/max error
// bars, as in the paper's figures.
type Aggregate struct {
	Mean float64
	Min  float64
	Max  float64
	N    int
}

// Aggregated computes an Aggregate over per-run values, ignoring NaNs.
func Aggregated(values []float64) Aggregate {
	var m Mean
	for _, v := range values {
		if !math.IsNaN(v) {
			m.Add(v)
		}
	}
	return Aggregate{Mean: m.Value(), Min: m.Min(), Max: m.Max(), N: m.N()}
}

// String formats the aggregate as "mean [min,max]".
func (a Aggregate) String() string {
	return fmt.Sprintf("%.4f [%.4f,%.4f]", a.Mean, a.Min, a.Max)
}

// Point is one sample of a time series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points, e.g. garbage percentage per
// collection number.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Len returns the point count.
func (s *Series) Len() int { return len(s.Points) }

// CSV renders series sharing an X axis as comma-separated text with a
// header row. Series of different lengths are padded with empty cells.
func CSV(xName string, series ...*Series) string {
	var b strings.Builder
	b.WriteString(xName)
	maxLen := 0
	for _, s := range series {
		fmt.Fprintf(&b, ",%s", s.Name)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	b.WriteByte('\n')
	for i := 0; i < maxLen; i++ {
		wroteX := false
		var row []string
		for _, s := range series {
			if i < s.Len() {
				if !wroteX {
					row = append([]string{fmt.Sprintf("%g", s.Points[i].X)}, row...)
					wroteX = true
				}
				row = append(row, fmt.Sprintf("%g", s.Points[i].Y))
			} else {
				row = append(row, "")
			}
		}
		if !wroteX {
			row = append([]string{""}, row...)
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders an aligned plain-text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
