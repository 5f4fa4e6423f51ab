package sim

// Backoff is a capped geometric delay: Step(0) is Base, and each step
// multiplies by Factor, truncates to whole nanoseconds and caps at Max
// (0: no cap; Base itself is never capped). Rounding at every step means
// a ladder that keeps its current delay and advances it with Next walks
// exactly the sequence Step returns.
type Backoff struct {
	Base   Duration
	Factor float64
	Max    Duration
}

// Next returns the delay one step after d.
func (b Backoff) Next(d Duration) Duration {
	d = Duration(float64(d) * b.Factor)
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	return d
}

// Step returns the delay n steps after Base.
func (b Backoff) Step(n int) Duration {
	d := b.Base
	for ; n > 0; n-- {
		d = b.Next(d)
	}
	return d
}

// Window counts instants, added in clock order, that lie inside a
// sliding span ending now: one exactly Span old still counts.
type Window struct {
	Span  Duration
	times []Time
}

// Add records one instant.
func (w *Window) Add(t Time) { w.times = append(w.times, t) }

// Count drops the instants older than now-Span and returns how many
// remain.
func (w *Window) Count(now Time) int {
	i, cutoff := 0, now.Add(-w.Span)
	for i < len(w.times) && w.times[i] < cutoff {
		i++
	}
	w.times = w.times[i:]
	return len(w.times)
}

// Reset empties the window.
func (w *Window) Reset() { w.times = w.times[:0] }
