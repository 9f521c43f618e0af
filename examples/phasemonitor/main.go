// Phasemonitor: watch the SAGA controller adapt to the OO7 application's
// phase changes in real time. Prints a per-collection log with an ASCII
// strip chart of actual vs estimated garbage around the requested level —
// the view behind the paper's Figures 6 and 7.
package main

import (
	"fmt"
	"log"
	"strings"

	"odbgc"
)

const (
	target    = 0.10 // requested garbage fraction
	history   = 0.8  // FGS/HB history factor (the paper's practical choice)
	chartCols = 50
	chartMax  = 0.25 // garbage fraction at the right edge of the chart
)

func main() {
	tr, err := odbgc.GenerateOO7Trace(odbgc.OO7Options{Connectivity: 3, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	est, err := odbgc.NewFGSHB(history)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := odbgc.NewSAGA(odbgc.SAGAConfig{Frac: target}, est)
	if err != nil {
		log.Fatal(err)
	}
	res, err := odbgc.Simulate(tr, policy, odbgc.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}

	phaseAt := make(map[int]string)
	for _, m := range res.Phases {
		phaseAt[m.Collections] = m.Label
	}

	fmt.Printf("SAGA, FGS/HB h=%.2f, requested garbage %.0f%%\n", history, target*100)
	fmt.Printf("chart: 0%% .. %.0f%% garbage; '|' target, 'a' actual, 'e' estimated, '*' both\n\n", chartMax*100)
	for i, c := range res.Collections {
		if label, ok := phaseAt[i]; ok {
			fmt.Printf("---- phase %s ----\n", label)
		}
		fmt.Printf("#%3d ow=%6d int=%4d yield=%6dB %s\n",
			c.Index, c.After.Overwrites, c.Interval, c.Result.ReclaimedBytes,
			strip(c.GarbageFrac(), c.EstimatedFrac()))
	}

	fmt.Printf("\nmean sampled garbage: %.2f%% (requested %.0f%%) over %d collections\n",
		res.GarbageFrac*100, target*100, len(res.Collections))
}

// strip renders one row of the chart.
func strip(actual, estimated float64) string {
	cells := []byte(strings.Repeat(".", chartCols))
	put := func(frac float64, ch byte) {
		pos := int(frac / chartMax * float64(chartCols))
		if pos >= chartCols {
			pos = chartCols - 1
		}
		if pos < 0 {
			pos = 0
		}
		if cells[pos] != '.' && cells[pos] != '|' && cells[pos] != ch {
			cells[pos] = '*'
		} else {
			cells[pos] = ch
		}
	}
	put(target, '|')
	put(actual, 'a')
	put(estimated, 'e')
	return "[" + string(cells) + "]"
}
