// Package retry implements the bounded-retry policy used across the
// engine: capped exponential backoff with deterministic seeded jitter,
// sleeping through an injectable clock.Clock so simulated runs replay
// identically and never wall-block. It replaces ad-hoc "try once more"
// code in dispatch restart-after-failover, HDFS replica reads, and
// interconnect connection setup (HAWQ §2.6: detect, mark down, retry
// elsewhere).
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hawq/internal/clock"
)

// Policy describes a bounded retry loop. The zero value is usable and
// means "4 attempts, 10ms base delay doubling to a 1s cap, ±50%
// jitter, wall clock, seed 1".
type Policy struct {
	// MaxAttempts is the total number of tries (first try included).
	// Values below 1 default to 4.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it grows by
	// Multiplier after every failure. Defaults to 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (before jitter). Defaults to 1s.
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor. Defaults to 2.
	Multiplier float64
	// Jitter is the fraction of the delay randomized symmetrically
	// around it: delay*(1±Jitter). Negative disables jitter; the
	// default is 0.5.
	Jitter float64
	// Clock is the sleep source; nil means clock.Wall.
	Clock clock.Clock
	// Seed feeds the jitter's deterministic rand source. Defaults to 1.
	Seed int64
}

func (p Policy) filled() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Clock == nil {
		p.Clock = clock.Wall{}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns it unwrapped:
// use it for errors where another attempt cannot help (a plan error, a
// constraint violation) as opposed to transient infrastructure faults.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// Backoff returns the pre-jitter backoff before attempt n (n counts
// failures so far, starting at 1): BaseDelay·Multiplier^(n-1), capped
// at MaxDelay. Exposed so callers that schedule their own waits (the
// fault detector's re-probe blacklist) share the policy's curve.
func (p Policy) Backoff(n int) time.Duration {
	p = p.filled()
	if n < 1 {
		n = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// jittered applies the policy's symmetric jitter to d using rng.
func (p Policy) jittered(d time.Duration, rng *rand.Rand) time.Duration {
	if p.Jitter <= 0 {
		return d
	}
	f := 1 + p.Jitter*(2*rng.Float64()-1)
	j := time.Duration(float64(d) * f)
	if j <= 0 {
		j = time.Nanosecond
	}
	return j
}

// Do runs attempt until it succeeds, returns a Permanent error, the
// attempt budget is exhausted, or ctx is done. attempt receives the
// 1-based attempt number. Between attempts Do sleeps the jittered
// backoff on the policy clock, waking early if ctx is canceled; the
// final error is wrapped with the attempt count (and joined with the
// context cause when ctx ended the loop).
func (p Policy) Do(ctx context.Context, attempt func(n int) error) error {
	p = p.filled()
	if ctx == nil {
		ctx = context.Background()
	}
	// The jitter source is seeded at the first backoff: an attempt that
	// succeeds first time, which is every healthy statement, pays nothing.
	var rng *rand.Rand
	var err error
	for n := 1; ; n++ {
		if cerr := ctx.Err(); cerr != nil {
			return canceledErr(ctx, err)
		}
		err = attempt(n)
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if n >= p.MaxAttempts {
			return fmt.Errorf("retry: %d attempts failed: %w", n, err)
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(p.Seed))
		}
		if !sleepCtx(ctx, p.Clock, p.jittered(p.Backoff(n), rng)) {
			return canceledErr(ctx, err)
		}
	}
}

// canceledErr reports a loop ended by context cancellation, keeping the
// last attempt error visible when there is one.
func canceledErr(ctx context.Context, last error) error {
	cause := context.Cause(ctx)
	if last == nil {
		return cause
	}
	return fmt.Errorf("retry: canceled (%w) after error: %w", cause, last)
}

// sleepCtx sleeps d on clk, returning false early if ctx is done. The
// timer is passive, so under clock.Sim the wait resolves only when the
// experiment driver advances virtual time (or cancels the context) —
// a chaos run never wall-blocks in a backoff.
func sleepCtx(ctx context.Context, clk clock.Clock, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-ctx.Done():
		return false
	}
}
