package fabric

// In-package retry-policy tests: backoff is unexported. The end-to-end
// retry behaviour (timeout expiry, requeue, loss accounting) is pinned
// by faultpath_test.go; these cover the delay arithmetic, in
// particular the documented ceiling that keeps the exponential growth
// bounded when no explicit BackoffMax is configured.

import (
	"testing"

	"ibasim/internal/sim"
)

func TestBackoffCapsAtExplicitMax(t *testing.T) {
	r := RetryConfig{MaxRetries: 10, BackoffBase: 100, BackoffMax: 700}
	want := []sim.Time{100, 200, 400, 700, 700, 700}
	for i, w := range want {
		if got := r.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestBackoffCapsAtDefaultWhenMaxUnset(t *testing.T) {
	// Before DefaultBackoffCap, an unset BackoffMax let the doubling
	// run away: attempt 40 from base 1000 would be ~5.5e14 ns and
	// attempt 70 would overflow sim.Time. Every attempt now saturates
	// at the documented ceiling.
	r := RetryConfig{MaxRetries: 100, BackoffBase: 1_000}
	if got := r.EffectiveBackoffCap(); got != DefaultBackoffCap {
		t.Fatalf("EffectiveBackoffCap = %d, want DefaultBackoffCap %d", got, DefaultBackoffCap)
	}
	for _, attempt := range []int{1, 2, 11, 12, 40, 70, 1000} {
		got := r.backoff(attempt)
		if got > DefaultBackoffCap {
			t.Fatalf("backoff(%d) = %d exceeds DefaultBackoffCap %d", attempt, got, DefaultBackoffCap)
		}
		if got <= 0 {
			t.Fatalf("backoff(%d) = %d (overflow?)", attempt, got)
		}
	}
	if got := r.backoff(1000); got != DefaultBackoffCap {
		t.Errorf("backoff(1000) = %d, want saturation at %d", got, DefaultBackoffCap)
	}
	// Below the cap the doubling is untouched.
	if got := r.backoff(3); got != 4_000 {
		t.Errorf("backoff(3) = %d, want 4000", got)
	}
}

func TestBackoffZeroBaseClampsToOne(t *testing.T) {
	r := RetryConfig{MaxRetries: 3}
	if got := r.backoff(1); got != 1 {
		t.Errorf("backoff(1) with zero base = %d, want 1", got)
	}
}
