package accel

import (
	"testing"

	"repro/internal/sim"
)

var benchDelivered int

// BenchmarkInjectDeliver measures one packet from Inject through delivery,
// in bursts of 16 spread over four cores with the probe fitted.
func BenchmarkInjectDeliver(b *testing.B) {
	const burst = 16
	e := sim.NewEngine()
	delivered := 0
	pl := NewPipeline(e, DefaultConfig(), NewProbe(500*sim.Nanosecond), nil, func(int, *Packet) { delivered++ })
	var pkts [burst]Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pkts[i%burst]
		p.Core = i % 4
		pl.Inject(p)
		if i%burst == burst-1 {
			e.RunUntilIdle()
		}
	}
	e.RunUntilIdle()
	benchDelivered = delivered
}
