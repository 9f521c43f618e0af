package fault

import (
	"fmt"
	"io"
)

// CorruptConfig controls the trace-stream corruption applied by CorruptReader.
type CorruptConfig struct {
	// TruncateAfter cuts the stream to this many bytes and then reports EOF,
	// simulating a torn write or mid-stream crash. Zero means no truncation.
	TruncateAfter int64
	// BitFlipProb is the per-byte probability of flipping one random bit.
	BitFlipProb float64
}

// CorruptReader deterministically corrupts a byte stream: truncation to a
// fixed length, and random single-bit flips. It is how chaos runs feed
// damaged traces into trace.Reader without damaging any file on disk.
type CorruptReader struct {
	r       io.Reader
	cfg     CorruptConfig
	rng     rng
	read    int64
	flipped uint64
}

// NewCorruptReader wraps r with deterministic, seeded corruption.
func NewCorruptReader(r io.Reader, cfg CorruptConfig, seed int64) *CorruptReader {
	return &CorruptReader{r: r, cfg: cfg, rng: newRNG(seed)}
}

// Read implements io.Reader.
func (c *CorruptReader) Read(p []byte) (int, error) {
	if c.cfg.TruncateAfter > 0 {
		remaining := c.cfg.TruncateAfter - c.read
		if remaining <= 0 {
			return 0, io.EOF
		}
		if int64(len(p)) > remaining {
			p = p[:remaining]
		}
	}
	n, err := c.r.Read(p)
	if c.cfg.BitFlipProb > 0 {
		for i := 0; i < n; i++ {
			if c.rng.float64() < c.cfg.BitFlipProb {
				p[i] ^= 1 << c.rng.intn(8)
				c.flipped++
			}
		}
	}
	c.read += int64(n)
	return n, err
}

// BytesRead returns how many bytes have passed through so far.
func (c *CorruptReader) BytesRead() int64 { return c.read }

// BitsFlipped returns how many bits have been corrupted so far.
func (c *CorruptReader) BitsFlipped() uint64 { return c.flipped }

// CorruptTrace wraps a trace stream of known size according to a profile's
// trace-fault rates. With no trace faults configured it returns r unchanged.
// The size is needed to turn the profile's truncation fraction into a byte
// offset; pass the file length.
func CorruptTrace(r io.Reader, size int64, p Profile, seed int64) (io.Reader, error) {
	if !p.Trace() {
		return r, nil
	}
	if p.TraceTruncateFrac < 0 || p.TraceTruncateFrac > 1 {
		return nil, fmt.Errorf("fault: trace truncate fraction %.3f outside [0,1]", p.TraceTruncateFrac)
	}
	cfg := CorruptConfig{BitFlipProb: p.TraceBitFlipProb}
	if p.TraceTruncateFrac > 0 {
		cfg.TruncateAfter = int64(float64(size) * p.TraceTruncateFrac)
		if cfg.TruncateAfter < 1 {
			cfg.TruncateAfter = 1
		}
	}
	return NewCorruptReader(r, cfg, seed), nil
}
