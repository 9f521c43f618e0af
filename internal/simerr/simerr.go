// Package simerr is the repository's structured failure taxonomy: a small
// set of errors.Is-able sentinels that every layer — the simulator, the
// fault injector, the trace codecs, the batch runner, and the CLIs —
// wraps into the errors it returns, so callers and the observability layer
// classify failures by identity instead of string-matching messages.
//
// The package is a leaf: it imports only the standard library, so any
// package (including internal/trace and internal/fault, which sit below the
// simulator) can adopt the taxonomy without import cycles.
//
// Usage pattern: producers wrap a sentinel into their error chain with
// fmt.Errorf("context: %w: %w", simerr.ErrTimeout, cause) or the W*
// helpers; consumers test errors.Is(err, simerr.ErrTimeout) or bucket with
// Classify for metrics.
package simerr

import (
	"context"
	"errors"
	"fmt"
)

// The sentinels. Each names a failure class with distinct handling:
//
//   - ErrCanceled: the caller asked the work to stop (context cancellation,
//     SIGINT drain). Not a defect; partial results and checkpoints are valid.
//   - ErrTimeout: a deadline elapsed — the caller's context expired before
//     the work finished. The run's partial state must be discarded.
//   - ErrFaultExhausted: every retry of a transiently failing storage
//     operation failed; the transient fault turned out not to be.
//   - ErrCorruptCheckpoint: persisted state — an encoded sim.Checkpoint —
//     failed validation on load. Safe handling is to discard it and
//     recompute.
//   - ErrPolicyFailure: a rate policy, estimator, or selection policy could
//     not be built or misbehaved; retrying without a config change is futile.
//   - ErrCorruptTrace: an input event stream is truncated or damaged.
//   - ErrOverloaded: the serving path refused work because an admission
//     limit (bounded queue, session cap) was reached. The request was shed
//     before touching any state; retrying after a backoff is the right
//     response, and the server attaches a retry-after hint.
//   - ErrSessionClosed: a client session ended before the request could be
//     served — the server is draining, the connection idled out, or the peer
//     disconnected mid-request. Not a defect; the request may be resent on a
//     fresh session once the server is accepting again.
//   - ErrTornWrite: a persisted page or log record is partially written —
//     its checksum or length prefix does not cover the bytes on disk. Torn
//     state is corruption, not transient I/O: retrying the read returns the
//     same bytes, so recovery (or deletion) is the only safe handling.
//   - ErrRecoveryFailed: crash recovery could not rebuild a consistent
//     store — the checkpoint image or the committed WAL prefix itself is
//     damaged beyond redo. This classifies as corruption, never as a
//     transient I/O failure: retry logic must not re-run recovery against
//     an unrecoverable store.
var (
	ErrCanceled          = errors.New("simerr: canceled")
	ErrTimeout           = errors.New("simerr: timeout")
	ErrFaultExhausted    = errors.New("simerr: fault retries exhausted")
	ErrCorruptCheckpoint = errors.New("simerr: corrupt checkpoint")
	ErrPolicyFailure     = errors.New("simerr: policy failure")
	ErrCorruptTrace      = errors.New("simerr: corrupt trace")
	ErrOverloaded        = errors.New("simerr: overloaded")
	ErrSessionClosed     = errors.New("simerr: session closed")
	ErrTornWrite         = errors.New("simerr: torn write")
	ErrRecoveryFailed    = errors.New("simerr: recovery failed")
)

// Class is a failure bucket for counters and reports. The zero value is
// ClassOK ("no failure").
type Class string

// The classes, one per sentinel plus OK and Other.
const (
	ClassOK                Class = "ok"
	ClassCanceled          Class = "canceled"
	ClassTimeout           Class = "timeout"
	ClassFaultExhausted    Class = "fault_exhausted"
	ClassCorruptCheckpoint Class = "corrupt_checkpoint"
	ClassPolicyFailure     Class = "policy_failure"
	ClassCorruptTrace      Class = "corrupt_trace"
	ClassOverloaded        Class = "overloaded"
	ClassSessionClosed     Class = "session_closed"
	ClassTornWrite         Class = "torn_write"
	ClassRecoveryFailed    Class = "recovery_failed"
	ClassOther             Class = "other"
)

// FailureClasses lists every failure class (everything except ClassOK), in
// a fixed order suitable for metric registration.
func FailureClasses() []Class {
	return []Class{
		ClassCanceled, ClassTimeout, ClassFaultExhausted,
		ClassCorruptCheckpoint, ClassPolicyFailure, ClassCorruptTrace,
		ClassOverloaded, ClassSessionClosed,
		ClassTornWrite, ClassRecoveryFailed,
		ClassOther,
	}
}

// classOf pairs sentinels with their classes in precedence order: the more
// specific diagnosis wins when a chain carries several sentinels (a timed-out
// run is reported as a timeout even though the deadline surfaced as a
// cancellation).
var classOf = []struct {
	err   error
	class Class
}{
	{ErrTimeout, ClassTimeout},
	// Recovery failure outranks torn-write: a torn record that recovery
	// could not absorb is reported as the unrecoverable store it produced.
	{ErrRecoveryFailed, ClassRecoveryFailed},
	{ErrTornWrite, ClassTornWrite},
	{ErrCorruptCheckpoint, ClassCorruptCheckpoint},
	{ErrCorruptTrace, ClassCorruptTrace},
	{ErrFaultExhausted, ClassFaultExhausted},
	{ErrOverloaded, ClassOverloaded},
	{ErrSessionClosed, ClassSessionClosed},
	{ErrPolicyFailure, ClassPolicyFailure},
	{ErrCanceled, ClassCanceled},
}

// Classify buckets an error by the taxonomy. nil classifies as ClassOK;
// context errors classify as if wrapped by FromContext; anything outside the
// taxonomy is ClassOther.
func Classify(err error) Class {
	if err == nil {
		return ClassOK
	}
	for _, c := range classOf {
		if errors.Is(err, c.err) {
			return c.class
		}
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	}
	return ClassOther
}

// FromContext converts a context error into its taxonomy equivalent:
// DeadlineExceeded becomes ErrTimeout, Canceled becomes ErrCanceled. The
// original error stays in the chain so errors.Is against the context
// sentinels keeps working. Non-context errors pass through unchanged.
func FromContext(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// Canceledf builds an ErrCanceled-classified error.
func Canceledf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCanceled, fmt.Sprintf(format, args...))
}

// WrapCorruptCheckpoint marks err as a corrupt-checkpoint failure, keeping
// the cause in the chain. A nil cause returns a bare classified error.
func WrapCorruptCheckpoint(detail string, cause error) error {
	if cause == nil {
		return fmt.Errorf("%w: %s", ErrCorruptCheckpoint, detail)
	}
	return fmt.Errorf("%w: %s: %w", ErrCorruptCheckpoint, detail, cause)
}

// WrapPolicyFailure marks err as a policy failure, keeping the cause in the
// chain.
func WrapPolicyFailure(detail string, cause error) error {
	if cause == nil {
		return fmt.Errorf("%w: %s", ErrPolicyFailure, detail)
	}
	return fmt.Errorf("%w: %s: %w", ErrPolicyFailure, detail, cause)
}

// Overloadedf builds an ErrOverloaded-classified error (an admission limit
// refused the work before any state changed).
func Overloadedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrOverloaded, fmt.Sprintf(format, args...))
}

// SessionClosedf builds an ErrSessionClosed-classified error (the session
// ended — drain, idle reap, or peer disconnect — before the request was
// served).
func SessionClosedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSessionClosed, fmt.Sprintf(format, args...))
}

// WrapTornWrite marks err as a torn-write corruption (a page or log record
// whose persisted bytes fail their checksum or length), keeping the cause
// in the chain. A nil cause returns a bare classified error.
func WrapTornWrite(detail string, cause error) error {
	if cause == nil {
		return fmt.Errorf("%w: %s", ErrTornWrite, detail)
	}
	return fmt.Errorf("%w: %s: %w", ErrTornWrite, detail, cause)
}

// WrapRecoveryFailed marks err as an unrecoverable-store failure, keeping
// the cause in the chain. Recovery failures are corruption, never transient
// I/O: callers must not retry against the same store.
func WrapRecoveryFailed(detail string, cause error) error {
	if cause == nil {
		return fmt.Errorf("%w: %s", ErrRecoveryFailed, detail)
	}
	return fmt.Errorf("%w: %s: %w", ErrRecoveryFailed, detail, cause)
}
