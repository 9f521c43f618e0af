package main

import (
	"math/rand"
	"time"
)

// Calibration. The sizing box is a 2-vCPU guest on a shared host. Code that
// lives in the memory system (map lookups, small allocations: what the program
// is made of) runs there at a speed that changes by a factor of two from one
// 10 ms stretch to the next and whose level drifts by up to 50 % over minutes,
// while a pure-ALU loop of the same length repeats to 3 %: the noise is a
// neighbour in the shared cache, not stolen processor time, and no window
// length or statistic of the raw times repeats (README, "Sizing evidence").
// Processor-bound timings (everything replay-*, restart and serve-mem report,
// and serve-durable's set-up) are therefore taken next to a fixed reference
// kernel and reported in units of the kernel, scaled by the kernel's nominal
// time so the figures still read as seconds on a quiet sizing box:
//
//	calibrated = wall * refNominal / (mean kernel time measured beside it)
//
// The kernel belongs to the harness and never changes with the program, so a
// change to the program moves the calibrated figure as it moves the raw one;
// only the machine's own speed cancels. serve-durable's window is not
// calibrated: its round trip is mostly the modelled sync stall, a third of
// its checkpoint too, and both repeat better raw than divided by the kernel.

// refNominal is the reference kernel's time on the quiet sizing box.
const refNominal = 10 * time.Millisecond

const (
	refOps     = 120_000
	refSlots   = 3
	refKeyMult = 0x9E3779B97F4A7C15
)

// refObj is the kernel's object: the shape the program's stores hold (a
// header, a slot slice, a map entry pointing at it).
type refObj struct {
	size  int
	hits  int
	slots []uint64
}

// refOp is one step of the kernel's fixed stream.
type refOp struct {
	kind uint8 // 0 create, 1 look up and touch, 2 store into a slot
	slot uint8
	key  uint64
	val  uint64
}

// referenceKernel is frozen work of the program's kind: it builds a map of
// small heap objects and looks them up and stores into them in a fixed random
// order, so it allocates, grows a map, misses the cache and feeds the Go
// collector the way a replay repetition or a heap rebuild does. The stream is
// drawn once from a constant seed, never from --seed.
type referenceKernel struct {
	ops  []refOp
	sink uint64
}

func newReferenceKernel() *referenceKernel {
	rng := rand.New(rand.NewSource(20240229))
	k := &referenceKernel{ops: make([]refOp, refOps)}
	created := uint64(0)
	for i := range k.ops {
		r := rng.Intn(100)
		switch {
		case created < 64 || r < 25:
			created++
			k.ops[i] = refOp{kind: 0, key: created * refKeyMult}
		case r < 70:
			k.ops[i] = refOp{kind: 1, key: (1 + uint64(rng.Int63n(int64(created)))) * refKeyMult}
		default:
			k.ops[i] = refOp{
				kind: 2, slot: uint8(rng.Intn(refSlots)),
				key: (1 + uint64(rng.Int63n(int64(created)))) * refKeyMult,
				val: (1 + uint64(rng.Int63n(int64(created)))) * refKeyMult,
			}
		}
	}
	return k
}

// run executes the kernel once and returns its wall time.
func (k *referenceKernel) run() time.Duration {
	t0 := time.Now()
	m := make(map[uint64]*refObj)
	for i := range k.ops {
		op := &k.ops[i]
		switch op.kind {
		case 0:
			m[op.key] = &refObj{size: 128, slots: make([]uint64, refSlots)}
		case 1:
			m[op.key].hits++
		default:
			m[op.key].slots[op.slot] = op.val
		}
	}
	k.sink += uint64(len(m))
	return time.Since(t0)
}

// probeShare is how long the kernel runs after a sample, as a share of the
// sample's own time. One kernel run spreads (inter-quartile over median) by
// 30-50 % on the sizing box, the same noise per millisecond as the program's,
// so a 500 ms recovery bracketed by single 10 ms runs would carry the probe's
// noise, not its own.
const probeShare = 0.2

// probe is a group of back-to-back kernel runs.
type probe struct {
	sum  time.Duration
	runs int
}

// calibrated is a sample stream in which every sample is bracketed by probes:
// between, before the first and after the last sample.
type calibrated struct {
	kernel *referenceKernel
	last   probe     // the probe that closed the previous sample
	refs   []float64 // every kernel time seen, ns
	spent  time.Duration
}

func newCalibrated() *calibrated {
	c := &calibrated{kernel: newReferenceKernel()}
	// The first runs grow the Go heap to the kernel's size; drop them.
	for i := 0; i < 3; i++ {
		c.kernel.run()
	}
	c.reference()
	return c
}

// sample times f and returns its wall time with the factor that calibrates
// it: refNominal over the mean kernel time of the probes on either side.
func (c *calibrated) sample(f func() error) (wall time.Duration, factor float64, err error) {
	before := c.last
	t0 := time.Now()
	err = f()
	wall = time.Since(t0)
	c.probeFor(wall)
	return wall, c.factor(before), err
}

// factor calibrates what ran between the probe before and the latest one.
func (c *calibrated) factor(before probe) float64 {
	return float64(refNominal) * float64(before.runs+c.last.runs) / float64(before.sum+c.last.sum)
}

// reference probes once more, for a sample that follows other work than the
// previous sample.
func (c *calibrated) reference() { c.probeFor(0) }

// probeFor runs the kernel at least once and until it has taken probeShare of
// the sample it closes.
func (c *calibrated) probeFor(sample time.Duration) {
	c.last = probe{}
	for c.last.runs == 0 || float64(c.last.sum) < probeShare*float64(sample) {
		d := c.kernel.run()
		c.last.sum += d
		c.last.runs++
		c.refs = append(c.refs, float64(d))
	}
	c.spent += c.last.sum
}

// slowdown is how much slower than nominal the machine ran the kernel over the
// whole stream (median), for the notes.
func (c *calibrated) slowdown() float64 {
	return median(c.refs) / float64(refNominal)
}
