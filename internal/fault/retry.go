package fault

import (
	"fmt"
	"time"

	"odbgc/internal/simerr"
)

// RetryConfig bounds the retry loop for transient storage faults.
type RetryConfig struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Zero means DefaultRetry.MaxAttempts.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles on each
	// subsequent retry up to MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep is called with each backoff delay. Nil means no waiting, which
	// keeps simulations deterministic and instant — the backoff schedule is
	// still computed and surfaced in the give-up error.
	Sleep func(time.Duration)
}

// DefaultRetry tolerates any single burst shorter than 8 ops.
var DefaultRetry = RetryConfig{
	MaxAttempts: 8,
	BaseDelay:   time.Millisecond,
	MaxDelay:    100 * time.Millisecond,
}

// Do runs fn, retrying with exponential backoff while it fails with a
// transient fault. Non-transient errors pass through immediately. When the
// attempt budget is exhausted the last transient error is wrapped in
// simerr.ErrFaultExhausted so callers can classify the give-up by identity;
// IsTransient still reports true on the result.
func (c RetryConfig) Do(op string, fn func() error) error {
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultRetry.MaxAttempts
	}
	base := c.BaseDelay
	if base <= 0 {
		base = DefaultRetry.BaseDelay
	}
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = DefaultRetry.MaxDelay
	}

	delay := base
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || !IsTransient(err) {
			return err
		}
		if attempt >= attempts {
			return fmt.Errorf("fault: %w: %s gave up after %d attempts: %w",
				simerr.ErrFaultExhausted, op, attempts, err)
		}
		if c.Sleep != nil {
			c.Sleep(delay)
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// Retrier is a storage fault injector that asks the injector it wraps again,
// under DefaultRetry's attempt budget, while the answer is a transient fault.
// The storage manager asks exactly once per operation and before it mutates
// anything, so asking again is the same as running the operation again: a
// manager behind a Retrier surfaces only non-transient errors and give-ups.
type Retrier struct {
	Injector interface{ BeforeOp(write bool) error }
}

// BeforeOp implements the storage.FaultInjector contract.
func (r Retrier) BeforeOp(write bool) error {
	op := "read"
	if write {
		op = "write"
	}
	return DefaultRetry.Do(op, func() error { return r.Injector.BeforeOp(write) })
}
