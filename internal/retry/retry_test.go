package retry

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hawq/internal/clock"
)

func fastPolicy() Policy {
	return Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
}

func TestDoSucceedsAfterFailures(t *testing.T) {
	var tries []int
	err := fastPolicy().Do(context.Background(), func(n int) error {
		tries = append(tries, n)
		if n < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(tries) != 3 || tries[0] != 1 || tries[2] != 3 {
		t.Fatalf("attempt sequence = %v, want [1 2 3]", tries)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := fastPolicy().Do(context.Background(), func(int) error {
		calls++
		return boom
	})
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "4 attempts") {
		t.Fatalf("err should mention the attempt count: %v", err)
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	fatal := errors.New("syntax error")
	calls := 0
	err := fastPolicy().Do(context.Background(), func(int) error {
		calls++
		return Permanent(fatal)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if err != fatal {
		t.Fatalf("err = %v, want the unwrapped permanent error", err)
	}
}

func TestBackoffCurve(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		10 * time.Millisecond, // n=1
		20 * time.Millisecond,
		40 * time.Millisecond,
		60 * time.Millisecond, // capped
		60 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestDoCancelDuringBackoff(t *testing.T) {
	// A Sim clock nobody advances parks the backoff forever; the
	// context cancel must wake it.
	sim := clock.NewSim(time.Time{})
	p := Policy{MaxAttempts: 3, BaseDelay: time.Hour, Clock: sim}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("client gone")
	boom := errors.New("transient")
	attempted := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, func(n int) error {
			if n == 1 {
				close(attempted)
			}
			return boom
		})
	}()
	<-attempted
	cancel(cause)
	select {
	case err := <-done:
		if !errors.Is(err, cause) || !errors.Is(err, boom) {
			t.Fatalf("err = %v, want both cancel cause and last attempt error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not wake on context cancel during a sim backoff")
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: seed}.filled()
		rng := rand.New(rand.NewSource(p.Seed))
		var ds []time.Duration
		for n := 1; n <= 6; n++ {
			ds = append(ds, p.jittered(p.Backoff(n), rng))
		}
		return ds
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, a[i], b[i])
		}
		base := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second}.Backoff(i + 1)
		if a[i] < base/2 || a[i] > base+base/2 {
			t.Fatalf("jittered delay %v outside ±50%% of %v", a[i], base)
		}
	}
	c := schedule(7)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical jitter schedule")
	}
}

// recClock records every backoff Do asks for and lets it elapse at once.
type recClock struct {
	clock.Wall
	slept []time.Duration
}

func (c *recClock) NewTimer(d time.Duration) clock.Timer {
	c.slept = append(c.slept, d)
	return c.Wall.NewTimer(0)
}

// Do seeds its jitter source at the first backoff, not on entry: a
// first-try success allocates nothing, and the delays of a failing run
// are still the ones its Seed has always produced.
func TestDoSeedsJitterLazily(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 42, Clock: clock.Wall{}}
	ok := func(int) error { return nil }
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Do(ctx, ok); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a first-try success allocates %v objects, want 0", n)
	}

	rec := &recClock{}
	p.Clock = rec
	if err := p.Do(ctx, func(int) error { return errors.New("transient") }); err == nil {
		t.Fatal("five failing attempts reported success")
	}
	f := p.filled()
	rng := rand.New(rand.NewSource(42))
	for i, got := range rec.slept {
		if want := f.jittered(f.Backoff(i+1), rng); got != want {
			t.Errorf("backoff %d = %v, want %v (the schedule of seed 42)", i+1, got, want)
		}
	}
	if len(rec.slept) != 4 {
		t.Errorf("%d backoffs for 5 attempts, want 4", len(rec.slept))
	}
}
