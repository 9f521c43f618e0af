package main

import (
	"strings"
	"testing"
)

// TestParsePolicySpec checks the -compare spec grammar: defaults for the
// parts left out, and rejection — naming the bad field — of values with
// trailing garbage, which a Sscanf-based parser used to read as their prefix.
func TestParsePolicySpec(t *testing.T) {
	for spec, want := range map[string]string{
		"saio":             "saio(10%)",
		"saio:0.25":        "saio(25%)",
		"saga":             "saga(10%,fgs-hb(0.80))",
		"saga::cgs-cb":     "saga(10%,cgs-cb)",
		"pi:0.05:oracle":   "pi(5%,oracle)",
		"coupled:0.2":      "coupled(io=20%,garb=20%,fgs-hb(0.80))",
		"fixed":            "fixed(200)",
		"fixed:50":         "fixed(50)",
		"never":            "never",
		"saio:0.1:ignored": "saio(10%)", // policies without an estimator never build one
	} {
		pol, err := parsePolicySpec(spec)
		if err != nil {
			t.Errorf("spec %q: %v", spec, err)
		} else if pol.Name() != want {
			t.Errorf("spec %q built %q, want %q", spec, pol.Name(), want)
		}
	}
	for spec, want := range map[string]string{
		"saio:0.1x":    `bad fraction "0.1x"`,
		"saga:1e":      `bad fraction "1e"`,
		"fixed:50abc":  `bad interval "50abc"`,
		"fixed:0.5":    `bad interval "0.5"`,
		"saio:x:y:z":   "want name[:value[:estimator]]", // rejected before "x" is read
		"wat:0.1":      "unknown policy",
		"saga:0.1:wat": `unknown estimator "wat"`,
		"saio:1.5":     "SAIO_Frac",
	} {
		if _, err := parsePolicySpec(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("spec %q: error %v, want mention of %s", spec, err, want)
		}
	}
}
