// Package fault is a deterministic, seedable fault injector for the seams
// where a real fault can happen:
//
//   - the trace stream: CorruptReader wraps any io.Reader with truncation,
//     bit-flip corruption, and premature EOF;
//   - the estimator signal: ChaosEstimator wraps any core.Estimator and
//     replaces its output with NaN or garbage values;
//   - the disk backend: DiskChaos wraps a disk.FS with torn writes, lying
//     fsyncs, short reads and bit rot;
//   - the network: NetChaos drives the load generator's slow, dropped,
//     malformed and bursty requests.
//
// The simulated storage manager does no I/O, so it gets no faults.
//
// Everything is driven by a splitmix64 generator whose entire state is one
// uint64, so fault schedules are reproducible from a seed. The same profile +
// seed always yields the same faults, which is what makes chaos runs
// regression-testable.
package fault

// rng is a splitmix64 generator; it is its own state.
type rng uint64

func newRNG(seed int64) rng {
	// Scramble the seed once so small seeds (0, 1, 2...) do not yield
	// correlated early outputs.
	r := rng(seed)
	r.next()
	return r
}

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0,1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0,n). n must be positive.
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}
