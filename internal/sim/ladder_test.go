package sim_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

const (
	us = sim.Microsecond
	ms = sim.Millisecond
)

// TestBackoffSitesOnDefaultPolicies pins the delay sequence each ladder
// walks on its default policy: the reclaim watchdog's retry timeout, the
// recovery ladder's static cooldown, the overload ladder's
// de-escalation dwell and the request lifecycle's retry backoff.
func TestBackoffSitesOnDefaultPolicies(t *testing.T) {
	def := core.DefaultDefenseConfig()
	rec := core.DefaultRecoveryPolicy()
	ovl := core.DefaultOverloadPolicy()
	ret := cluster.DefaultRetryPolicy()
	for _, tc := range []struct {
		name string
		b    sim.Backoff
		want []sim.Duration
	}{
		{"watchdog", sim.Backoff{Base: def.ReclaimTimeout, Factor: def.RetryBackoff},
			[]sim.Duration{10 * us, 20 * us, 40 * us}},
		{"recovery", sim.Backoff{Base: rec.Cooldown, Factor: rec.CooldownFactor, Max: rec.MaxCooldown},
			[]sim.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 320 * ms, 500 * ms, 500 * ms}},
		{"overload", sim.Backoff{Base: ovl.Cooldown, Factor: ovl.CooldownFactor, Max: ovl.MaxCooldown},
			[]sim.Duration{2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 64 * ms, 100 * ms, 100 * ms}},
		{"retry", sim.Backoff{Base: ret.BaseBackoff, Factor: ret.BackoffFactor},
			[]sim.Duration{20 * ms, 40 * ms, 80 * ms}},
		{"constant", sim.Backoff{Base: ret.BaseBackoff, Factor: 1},
			[]sim.Duration{20 * ms, 20 * ms, 20 * ms, 20 * ms}},
	} {
		d := tc.b.Base
		for n, want := range tc.want {
			if got := tc.b.Step(n); got != want {
				t.Errorf("%s: Step(%d) = %v, want %v", tc.name, n, got, want)
			}
			if d != want {
				t.Errorf("%s: %d Next steps from Base = %v, want %v", tc.name, n, d, want)
			}
			d = tc.b.Next(d)
		}
	}
}

// TestBackoffMatchesPerStepRecurrence compares Step with the recurrence
// the ladders used to write out by hand — multiply, truncate to whole
// nanoseconds, cap — over random integer bases, caps and step counts.
// For integer factors it also matches the retry policy's old form,
// which multiplied in floating point and truncated once: the products
// stay exact below 2^53 ns.
func TestBackoffMatchesPerStepRecurrence(t *testing.T) {
	r := sim.NewRNG(1).Stream("sim.backoff-property")
	for i := 0; i < 2000; i++ {
		factor := []float64{1, 1.5, 2, 3}[r.Intn(4)]
		base := sim.Duration(1 + r.Int63n(int64(ms)))
		var max sim.Duration
		if r.Intn(2) == 0 {
			max = base + sim.Duration(r.Int63n(int64(100*ms)))
		}
		n := r.Intn(16)
		b := sim.Backoff{Base: base, Factor: factor, Max: max}

		want := base
		for j := 0; j < n; j++ {
			want = sim.Duration(float64(want) * factor)
			if max > 0 && want > max {
				want = max
			}
		}
		if got := b.Step(n); got != want {
			t.Fatalf("%+v Step(%d) = %d, want %d", b, n, got, want)
		}

		if max == 0 && factor != 1.5 {
			once := float64(base)
			for j := 0; j < n; j++ {
				once *= factor
			}
			if got := b.Step(n); got != sim.Duration(once) {
				t.Fatalf("%+v Step(%d) = %d, float-accumulated %d", b, n, got, sim.Duration(once))
			}
		}
	}
}

// TestWindowBoundaries pins the sliding-window comparison: an instant
// exactly Span old still counts, one a nanosecond older is dropped, and
// Reset empties the window.
func TestWindowBoundaries(t *testing.T) {
	w := sim.Window{Span: ms}
	first := sim.Time(10 * us)
	w.Add(first)
	w.Add(first.Add(500 * us))

	if got := w.Count(first.Add(ms)); got != 2 {
		t.Fatalf("Count with the first instant exactly Span old = %d, want 2", got)
	}
	if got := w.Count(first.Add(ms + sim.Nanosecond)); got != 1 {
		t.Fatalf("Count one ns past the span = %d, want 1", got)
	}

	w.Add(first.Add(ms + sim.Nanosecond))
	w.Reset()
	if got := w.Count(first.Add(ms + sim.Nanosecond)); got != 0 {
		t.Fatalf("Count after Reset = %d, want 0", got)
	}
	w.Add(first.Add(2 * ms))
	if got := w.Count(first.Add(2 * ms)); got != 1 {
		t.Fatalf("Count after Reset and one Add = %d, want 1", got)
	}
}
