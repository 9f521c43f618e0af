package fault

import (
	"fmt"
	"sort"
	"strings"
)

// Profile is a named bundle of fault rates covering every injection point.
// Profiles carry no randomness themselves — pair one with a seed to get a
// reproducible fault schedule.
type Profile struct {
	Name        string
	Description string

	// Estimator signal faults.
	EstNaNProb     float64 // per-estimate probability of returning NaN
	EstGarbageProb float64 // per-estimate probability of a garbage value

	// Trace stream faults (applied by CorruptReader).
	TraceTruncateFrac float64 // cut the stream at this fraction of its length (0 = off)
	TraceBitFlipProb  float64 // per-byte probability of flipping one bit
}

// Estimator reports whether the profile injects estimator signal faults.
func (p Profile) Estimator() bool {
	return p.EstNaNProb > 0 || p.EstGarbageProb > 0
}

// Trace reports whether the profile corrupts the trace stream.
func (p Profile) Trace() bool {
	return p.TraceTruncateFrac > 0 || p.TraceBitFlipProb > 0
}

// profiles is the registry of named chaos profiles. Rates are deliberately
// aggressive relative to real hardware so short simulations exercise every
// recovery path.
var profiles = map[string]Profile{
	"off": {
		Name:        "off",
		Description: "no faults (the default)",
	},
	"trace-corrupt": {
		Name:              "trace-corrupt",
		Description:       "trace stream truncated at 90% with sparse bit flips",
		TraceTruncateFrac: 0.9,
		TraceBitFlipProb:  0.0005,
	},
	"estimator-dropout": {
		Name:           "estimator-dropout",
		Description:    "garbage-signal dropout: 10% NaN, 5% garbage estimates",
		EstNaNProb:     0.10,
		EstGarbageProb: 0.05,
	},
}

// LookupProfile resolves a profile by name ("" means "off").
func LookupProfile(name string) (Profile, error) {
	if name == "" {
		name = "off"
	}
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("fault: unknown profile %q (have %s)", name, strings.Join(ProfileNames(), ", "))
	}
	return p, nil
}

// ProfileNames lists the registered profiles in sorted order.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
