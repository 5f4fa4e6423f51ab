package sim

import (
	"fmt"
	"testing"
)

var benchFired uint64

// benchDelays returns a deterministic delay source spread over [1, 1000]
// ns, so pushes land at every depth of the queue.
func benchDelays() func() Duration {
	x := uint64(1)
	return func() Duration {
		x = x*6364136223846793005 + 1442695040888963407
		return Duration(x>>33)%1000 + 1
	}
}

// BenchmarkScheduleStep measures one Schedule plus one Step against a
// queue held at a fixed depth.
func BenchmarkScheduleStep(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			delay := benchDelays()
			fn := func() {}
			for i := 0; i < depth; i++ {
				e.Schedule(delay(), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(delay(), fn)
				e.Step()
			}
			benchFired = e.Fired()
		})
	}
}

// BenchmarkCancel measures scheduling and cancelling an event that the
// queue later drops, next to one live Schedule plus Step at depth 256.
func BenchmarkCancel(b *testing.B) {
	e := NewEngine()
	delay := benchDelays()
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.Schedule(delay(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(delay(), fn).Cancel()
		e.Schedule(delay(), fn)
		e.Step()
	}
	benchFired = e.Fired()
}
