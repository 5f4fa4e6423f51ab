package workload

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// BackgroundConfig drives production-like bursty traffic against the DP
// services: a two-state MMPP per core whose calm/burst balance yields the
// target mean utilization while producing the long-idle/short-burst
// pattern behind the paper's Figure 3 CDF (99.68% of per-second samples
// below 32.5%).
type BackgroundConfig struct {
	// MeanUtilization is the long-run target busy fraction per DP core.
	MeanUtilization float64
	// BurstUtilization is the busy fraction while bursting (can be ~1.0).
	BurstUtilization float64
	// CalmHold / BurstHold are mean dwell times of the modulating chain.
	CalmHold  sim.Duration
	BurstHold sim.Duration
	// NetWork / StorWork are per-packet costs.
	NetWork  sim.Duration
	StorWork sim.Duration
	// Train is how many packets arrive back-to-back per arrival event
	// (interrupt-coalescing/batching as seen on real NICs); inter-train
	// gaps scale with the train length so utilization is preserved.
	Train int
	// Storage mirrors the traffic onto the storage service too.
	Storage bool
}

// DefaultBackground produces the ~30% operating point of §6.2 with
// production-style burstiness.
func DefaultBackground(mean float64) BackgroundConfig {
	return BackgroundConfig{
		MeanUtilization:  mean,
		BurstUtilization: 0.95,
		CalmHold:         80 * sim.Millisecond,
		BurstHold:        20 * sim.Millisecond,
		NetWork:          900 * sim.Nanosecond,
		StorWork:         3500 * sim.Nanosecond,
		Train:            12,
		Storage:          true,
	}
}

// Background is the running traffic generator.
type Background struct {
	cfg  BackgroundConfig
	node *platform.Node

	Packets *metrics.Counter
	stopped bool
}

// NewBackground builds the generator.
func NewBackground(node *platform.Node, cfg BackgroundConfig) *Background {
	return &Background{cfg: cfg, node: node, Packets: metrics.NewCounter("bg.packets")}
}

// Start launches one MMPP arrival process per DP core.
func (b *Background) Start() {
	for i, c := range b.node.Net.Cores() {
		b.launch(c.ID, b.cfg.NetWork, false, i)
	}
	if b.cfg.Storage && b.node.Stor != nil {
		for i, c := range b.node.Stor.Cores() {
			b.launch(c.ID, b.cfg.StorWork, true, i)
		}
	}
}

// Stop freezes the generator.
func (b *Background) Stop() { b.stopped = true }

func (b *Background) launch(core int, work sim.Duration, storage bool, idx int) {
	// Keep the two families as literal formats (not "%s%d" over a
	// variable prefix) so the streamdraw lint can audit them against
	// the stream registry; the derived names are unchanged.
	stream := fmt.Sprintf("bg.net%d", idx)
	if storage {
		stream = fmt.Sprintf("bg.stor%d", idx)
	}
	r := b.node.Stream(stream)

	// Derive the calm-state rate so the long-run mean hits the target:
	// mean = fCalm*uCalm + fBurst*uBurst, with dwell-time fractions.
	fBurst := float64(b.cfg.BurstHold) / float64(b.cfg.BurstHold+b.cfg.CalmHold)
	uBurst := b.cfg.BurstUtilization
	uCalm := (b.cfg.MeanUtilization - fBurst*uBurst) / (1 - fBurst)
	if uCalm < 0.005 {
		uCalm = 0.005
	}
	train := b.cfg.Train
	if train < 1 {
		train = 1
	}
	calmGap := sim.Duration(float64(work) / uCalm * float64(train))
	burstGap := sim.Duration(float64(work) / uBurst * float64(train))
	mmpp := &dist.MMPP2{
		CalmInterarrival:  calmGap,
		BurstInterarrival: burstGap,
		CalmHold:          b.cfg.CalmHold,
		BurstHold:         b.cfg.BurstHold,
	}
	// The arrival callback is bound once per generator, so each train
	// costs one engine event and no closure.
	var arrive func()
	next := func() {
		if b.stopped {
			return
		}
		b.node.Engine.Schedule(mmpp.Next(r, b.node.Now()), arrive)
	}
	arrive = func() {
		if b.stopped {
			return
		}
		for k := 0; k < train; k++ {
			b.Packets.Inc()
			b.node.Pipe.Inject(&accel.Packet{Core: core, Work: work})
		}
		next()
	}
	next()
}
