package simerr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestSentinelsAreDistinct(t *testing.T) {
	sentinels := []error{
		ErrCanceled, ErrTimeout,
		ErrPolicyFailure, ErrCorruptTrace,
		ErrOverloaded, ErrSessionClosed,
		ErrTornWrite, ErrRecoveryFailed,
	}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Errorf("errors.Is(%v, %v) = %v", a, b, i == j)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassOK},
		{ErrCanceled, ClassCanceled},
		{fmt.Errorf("run 3: %w", ErrTimeout), ClassTimeout},
		{WrapPolicyFailure("building saga", errors.New("bad frac")), ClassPolicyFailure},
		{fmt.Errorf("trace: %w", ErrCorruptTrace), ClassCorruptTrace},
		{ErrOverloaded, ClassOverloaded},
		{Overloadedf("queue full (%d waiting)", 128), ClassOverloaded},
		{ErrSessionClosed, ClassSessionClosed},
		{SessionClosedf("server draining"), ClassSessionClosed},
		{ErrTornWrite, ClassTornWrite},
		{WrapTornWrite("wal record 12", errors.New("crc mismatch")), ClassTornWrite},
		{ErrRecoveryFailed, ClassRecoveryFailed},
		{WrapRecoveryFailed("page 3", errors.New("bad checksum")), ClassRecoveryFailed},
		// Precedence: a torn record recovery could not absorb reports the
		// unrecoverable store, not the tear that caused it — corruption,
		// never a retryable I/O failure.
		{WrapRecoveryFailed("replay", ErrTornWrite), ClassRecoveryFailed},
		{context.Canceled, ClassCanceled},
		{context.DeadlineExceeded, ClassTimeout},
		{errors.New("disk on fire"), ClassOther},
		// Precedence: a timeout that surfaced via cancellation is a timeout.
		{fmt.Errorf("%w: %w", ErrCanceled, ErrTimeout), ClassTimeout},
		// Precedence: a request shed during drain reports the admission
		// refusal, not the drain's cancellation.
		{fmt.Errorf("%w: %w", ErrCanceled, ErrOverloaded), ClassOverloaded},
		// Precedence: a session that closed because the drain deadline
		// elapsed reports the timeout — the sharper diagnosis.
		{fmt.Errorf("%w: %w", ErrSessionClosed, ErrTimeout), ClassTimeout},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestFromContext(t *testing.T) {
	if err := FromContext(nil); err != nil {
		t.Errorf("FromContext(nil) = %v", err)
	}
	err := FromContext(context.DeadlineExceeded)
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline mapping lost a sentinel: %v", err)
	}
	err = FromContext(context.Canceled)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancel mapping lost a sentinel: %v", err)
	}
	plain := errors.New("unrelated")
	if got := FromContext(plain); got != plain {
		t.Errorf("non-context error rewritten: %v", got)
	}

	// The real thing: a context cancelled by deadline classifies as timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	if got := Classify(FromContext(ctx.Err())); got != ClassTimeout {
		t.Errorf("expired context classifies as %q", got)
	}
}

func TestFailureClassesCoverClassify(t *testing.T) {
	seen := map[Class]bool{}
	for _, c := range FailureClasses() {
		if seen[c] {
			t.Errorf("duplicate class %q", c)
		}
		seen[c] = true
	}
	for _, pair := range classOf {
		if !seen[pair.class] {
			t.Errorf("class %q missing from FailureClasses", pair.class)
		}
	}
}
