package fault

import (
	"fmt"
	"sort"
	"strings"
)

// NetProfile is a named bundle of client/network chaos rates for the
// serving path: the misbehaviors a live object-database front end must
// absorb without leaking goroutines or wedging its drain. Like Profile it
// carries no randomness — pair it with a seed (NewNetChaos) and the chaos
// schedule is reproducible request for request.
//
// The four knobs map to the four classic network failure shapes:
//
//   - slow reader/writer: the peer trickles bytes, holding a session (and
//     its server-side resources) open far longer than the work justifies;
//   - mid-request disconnect: the peer vanishes after the request is sent
//     but before the response is read;
//   - malformed frame: the peer ships bytes that are not a protocol frame
//     (bad length prefix, truncated payload, non-JSON body);
//   - burst arrival: open-loop arrivals clump, driving the instantaneous
//     rate far past the configured mean and past the admission limit.
type NetProfile struct {
	Name        string
	Description string

	// SlowProb is the per-request probability of pacing the request's bytes
	// slowly; SlowFactorMax bounds the uniform pacing multiplier in
	// [1, SlowFactorMax].
	SlowProb      float64
	SlowFactorMax float64

	// DisconnectProb is the per-request probability of dropping the
	// connection mid-request, before reading the response.
	DisconnectProb float64

	// MalformedProb is the per-request probability of sending a garbage
	// frame instead of the real request.
	MalformedProb float64

	// BurstProb is the per-arrival probability of an arrival burst;
	// BurstLen extra requests are dispatched immediately when one fires.
	BurstProb float64
	BurstLen  int
}

// Active reports whether the profile injects any network chaos.
func (p NetProfile) Active() bool {
	return p.SlowProb > 0 || p.DisconnectProb > 0 || p.MalformedProb > 0 || p.BurstProb > 0
}

// netProfiles is the registry of named network chaos profiles. Rates are
// aggressive relative to real clients so short load runs exercise every
// server recovery path.
var netProfiles = map[string]NetProfile{
	"net-off": {
		Name:        "net-off",
		Description: "well-behaved clients (the default)",
	},
	"net-slow": {
		Name:          "net-slow",
		Description:   "slow readers: 20% of requests trickle bytes at up to 8x pacing",
		SlowProb:      0.20,
		SlowFactorMax: 8,
	},
	"net-flaky": {
		Name:           "net-flaky",
		Description:    "flaky peers: 5% mid-request disconnects, 3% malformed frames",
		DisconnectProb: 0.05,
		MalformedProb:  0.03,
	},
	"net-burst": {
		Name:        "net-burst",
		Description: "bursty arrivals: 5% chance per arrival of 8 extra immediate requests",
		BurstProb:   0.05,
		BurstLen:    8,
	},
	"net-chaos": {
		Name:           "net-chaos",
		Description:    "all network fault classes at once",
		SlowProb:       0.10,
		SlowFactorMax:  4,
		DisconnectProb: 0.03,
		MalformedProb:  0.02,
		BurstProb:      0.03,
		BurstLen:       6,
	},
}

// LookupNetProfile resolves a network chaos profile by name ("" means
// "net-off").
func LookupNetProfile(name string) (NetProfile, error) {
	if name == "" {
		name = "net-off"
	}
	p, ok := netProfiles[name]
	if !ok {
		return NetProfile{}, fmt.Errorf("fault: unknown net profile %q (have %s)", name, strings.Join(NetProfileNames(), ", "))
	}
	return p, nil
}

// NetProfileNames lists the registered network profiles in sorted order.
func NetProfileNames() []string {
	names := make([]string, 0, len(netProfiles))
	for name := range netProfiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NetDecision is the chaos verdict for one request, drawn deterministically
// from the profile and seed. The consumer (a load generator or a server
// test) is responsible for acting it out — the decider itself never touches
// the network or the clock.
type NetDecision struct {
	// SlowFactor multiplies the sender's per-byte pacing delay; 1 means
	// full speed.
	SlowFactor float64
	// Disconnect drops the connection after sending, before the response.
	Disconnect bool
	// Malformed replaces the request with a garbage frame.
	Malformed bool
	// Burst is how many extra requests to dispatch immediately alongside
	// this arrival (0 for a lone arrival).
	Burst int
}

// NetChaosStats counts what a decider has handed out.
type NetChaosStats struct {
	Requests    uint64
	Slow        uint64
	Disconnects uint64
	Malformed   uint64
	Bursts      uint64
}

// NetChaos deals NetDecisions from a seeded generator: same profile, same
// seed, same schedule, so a chaotic load run is a reproducible experiment.
// It is not safe for concurrent use; give each load-generator worker its
// own decider (derive per-worker seeds from the run seed).
type NetChaos struct {
	profile NetProfile
	rng     rng
	stats   NetChaosStats
}

// NewNetChaos builds a decider for the profile, seeded.
func NewNetChaos(profile NetProfile, seed int64) *NetChaos {
	return &NetChaos{profile: profile, rng: newRNG(seed)}
}

// Profile returns the decider's profile.
func (c *NetChaos) Profile() NetProfile { return c.profile }

// Next draws the chaos decision for the next request. Draw order is fixed
// (slow, disconnect, malformed, burst) so schedules are stable across
// refactors of the consumer.
func (c *NetChaos) Next() NetDecision {
	c.stats.Requests++
	d := NetDecision{SlowFactor: 1}
	if c.profile.SlowProb > 0 && c.rng.float64() < c.profile.SlowProb {
		max := c.profile.SlowFactorMax
		if max < 1 {
			max = 1
		}
		d.SlowFactor = 1 + c.rng.float64()*(max-1)
		c.stats.Slow++
	}
	if c.profile.DisconnectProb > 0 && c.rng.float64() < c.profile.DisconnectProb {
		d.Disconnect = true
		c.stats.Disconnects++
	}
	if c.profile.MalformedProb > 0 && c.rng.float64() < c.profile.MalformedProb {
		d.Malformed = true
		c.stats.Malformed++
	}
	if c.profile.BurstProb > 0 && c.rng.float64() < c.profile.BurstProb {
		d.Burst = c.profile.BurstLen
		c.stats.Bursts++
	}
	return d
}

// MalformedFrame returns a deterministic garbage byte string for a
// malformed-frame injection: a plausible-looking length prefix followed by
// bytes that are not a valid frame payload. Length varies with the draw so
// servers see a spread of truncations and oversizes.
func (c *NetChaos) MalformedFrame() []byte {
	n := 4 + c.rng.intn(28)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(c.rng.next())
	}
	// Force a hostile length prefix on half the draws: a huge declared
	// length exercises the server's frame-size limit.
	if n >= 4 && c.rng.float64() < 0.5 {
		b[0], b[1], b[2], b[3] = 0xFF, 0xFF, 0xFF, 0xFF
	}
	return b
}

// Stats returns a copy of the decider's counters.
func (c *NetChaos) Stats() NetChaosStats { return c.stats }
