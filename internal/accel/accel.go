// Package accel models the SmartNIC's programmable I/O hardware
// accelerator: the per-packet preprocessing pipeline whose timing creates
// the paper's Figure 6 window (2.7 µs preprocess + 0.5 µs transfer), and
// the ~30-line hardware workload probe (§4.3, Figure 10) that inspects the
// destination CPU's V/P state *before* preprocessing begins and fires an
// early IRQ so that vCPU preemption overlaps the preprocessing window.
package accel

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Packet is one I/O request (network packet or storage command) flowing
// through the accelerator into a data-plane service.
type Packet struct {
	ID int64
	// Core is the destination data-plane physical core.
	Core int
	// Arrival is when the request hit the accelerator.
	Arrival sim.Time
	// Work is the software processing cost the DP service will pay.
	Work sim.Duration
	// Flow identifies the connection/queue the packet belongs to, for DP
	// services with connection tracking enabled.
	Flow int
	// SYN / FIN mark flow-opening and flow-closing packets.
	SYN, FIN bool
	// Done, if non-nil, fires when the DP service finishes the packet.
	Done func(p *Packet, finished sim.Time)
}

// CoreState is the per-core state the hardware workload probe maintains:
// P-state (pCPU context: DP service resident, interrupts masked) or
// V-state (vCPU context: a CP vCPU holds the core).
type CoreState uint8

// Core states tracked by the probe.
const (
	// PState: DP service owns the core; the probe stays silent.
	PState CoreState = iota
	// VState: a vCPU occupies the core; an arriving packet triggers an IRQ.
	VState
)

// String names the state.
func (s CoreState) String() string {
	if s == PState {
		return "P"
	}
	return "V"
}

// Probe is the hardware workload probe. The vCPU scheduler updates the
// per-core state table; the pipeline consults it on every packet arrival.
type Probe struct {
	// Enabled turns the probe on; the "Tai Chi w/o HW probe" ablation of
	// Table 5 sets this false.
	Enabled bool
	// IRQLatency is the accelerator→CPU interrupt delivery time.
	IRQLatency sim.Duration
	// OnIRQ receives the early preemption request for a core.
	OnIRQ func(core int)
	// MissCheck, when non-nil, is consulted before the probe fires for a
	// V-state core; returning true swallows the arrival check (a
	// hardware-probe miss). Installed by the fault-injection layer only —
	// it must stay nil in fault-free runs so no RNG draws are added.
	MissCheck func(core int) bool

	// Misses counts arrival checks swallowed by MissCheck.
	Misses uint64

	// states is indexed by core; cores past its end are in P-state.
	states []CoreState
	// pending marks cores with a preemption request already in flight;
	// the request is level-triggered, so further packet arrivals for the
	// same V-state episode do not fire duplicate IRQs. Cleared when the
	// scheduler flips the core back to P-state. Indexed by core, like
	// states.
	pending []bool
	// IRQs counts probe interrupts fired, for overhead accounting.
	IRQs uint64

	// inFlight reports packets currently inside the accelerator pipeline
	// for a core (wired by NewPipeline). The probe consults it when a core
	// flips to V-state: packets that passed the arrival check before the
	// flip must still trigger the early preemption IRQ.
	inFlight func(core int) int
	engine   *sim.Engine
	tracer   *trace.Tracer
}

// NewProbe returns an enabled probe with every core in P-state.
func NewProbe(irqLatency sim.Duration) *Probe {
	return &Probe{Enabled: true, IRQLatency: irqLatency}
}

// SetState updates a core's V/P state (called by the vCPU scheduler,
// steps 5 and 4 of Figure 7b). Flipping a core to V-state while packets
// for it are still inside the preprocessing pipeline fires the IRQ
// immediately — those packets passed the arrival check before the flip.
// core must not be negative.
func (p *Probe) SetState(core int, s CoreState) {
	if core >= len(p.states) {
		p.states = grown(p.states, core)
		p.pending = grown(p.pending, core)
	}
	p.states[core] = s
	if s == PState {
		p.pending[core] = false
		return
	}
	if p.Enabled && p.inFlight != nil && p.inFlight(core) > 0 {
		if p.MissCheck != nil && p.MissCheck(core) {
			p.Misses++
			return
		}
		p.fire(core, "inflight-at-vstate")
	}
}

// State returns the core's current state (default P-state).
func (p *Probe) State(core int) CoreState {
	if core < 0 || core >= len(p.states) {
		return PState
	}
	return p.states[core]
}

// grown returns s extended with zero values so that s[core] is valid.
func grown[T any](s []T, core int) []T {
	return append(s, make([]T, core+1-len(s))...)
}

// inspect runs the probe's arrival check: in V-state it fires the IRQ.
// The state is NOT flipped here — the vCPU scheduler transitions it to
// P-state once the DP context is restored, which also makes repeated
// arrivals during the switch harmless (the scheduler ignores duplicates).
func (p *Probe) inspect(core int) {
	if !p.Enabled || p.State(core) != VState {
		return
	}
	if p.MissCheck != nil && p.MissCheck(core) {
		p.Misses++
		return
	}
	p.fire(core, "vstate-hit")
}

// InjectSpurious fires the early-preemption IRQ for a core without any
// packet arrival — the fault-injection layer's spurious-reclaim path.
// Only V-state cores accept it (the probe hardware only watches lent
// cores, and a spurious request while the DP owns the core would poison
// the level-triggered pending latch). Reports whether the IRQ fired.
func (p *Probe) InjectSpurious(core int) bool {
	if !p.Enabled || p.State(core) != VState || p.pending[core] {
		return false
	}
	p.fire(core, "spurious")
	return true
}

// fire emits the early preemption IRQ after the delivery latency. The
// request is level-triggered: one IRQ per V-state episode.
func (p *Probe) fire(core int, why string) {
	if p.pending[core] {
		return
	}
	p.pending[core] = true
	p.IRQs++
	p.tracer.Emit(p.engine.Now(), trace.KindProbeIRQ, core, 0, why)
	p.engine.ScheduleNamed(p.IRQLatency, "accel.probe-irq", func() {
		if p.OnIRQ != nil {
			p.OnIRQ(core)
		}
	})
}

// Config is the pipeline timing model (Figure 6).
type Config struct {
	// Preprocess is stage ②: payload processing inside the accelerator.
	Preprocess sim.Duration
	// Transfer is stage ③: moving the preprocessed packet to the memory
	// shared with the DP service.
	Transfer sim.Duration
}

// DefaultConfig mirrors the paper's measured 2.7 µs + 0.5 µs breakdown.
func DefaultConfig() Config {
	return Config{
		Preprocess: 2700 * sim.Nanosecond,
		Transfer:   500 * sim.Nanosecond,
	}
}

// Pipeline is the programmable accelerator datapath. Packets proceed
// through preprocess and transfer stages in parallel (the hardware is
// deeply pipelined), then land in the destination core's DP queue.
type Pipeline struct {
	engine  *sim.Engine
	cfg     Config
	tracer  *trace.Tracer
	probe   *Probe
	deliver func(core int, p *Packet)
	nextID  int64
	// line carries every packet through preprocess and transfer. The
	// stages complete back-to-back with no intervening decision point
	// and a fixed total latency, so packets leave in arrival order.
	line *sim.DelayLine[*Packet]

	// Injected counts packets accepted into the pipeline.
	Injected uint64

	// inFlight is indexed by destination core.
	inFlight []int
}

// NewPipeline builds the accelerator datapath. deliver lands finished
// packets in a DP core's receive queue; probe may be nil (no hardware
// probe fitted, as on a stock SmartNIC image).
func NewPipeline(engine *sim.Engine, cfg Config, probe *Probe, tracer *trace.Tracer, deliver func(core int, p *Packet)) *Pipeline {
	if deliver == nil {
		panic("accel: pipeline needs a delivery sink")
	}
	pl := &Pipeline{engine: engine, cfg: cfg, tracer: tracer, probe: probe, deliver: deliver}
	pl.line = sim.NewDelayLine(engine, cfg.Preprocess+cfg.Transfer, "accel.pipeline", pl.complete)
	if probe != nil {
		probe.inFlight = pl.InFlight
		probe.engine = engine
		probe.tracer = tracer
	}
	return pl
}

// InFlight returns the number of packets currently in the pipeline for a
// destination core.
func (pl *Pipeline) InFlight(core int) int {
	if core < 0 || core >= len(pl.inFlight) {
		return 0
	}
	return pl.inFlight[core]
}

// Probe returns the attached hardware workload probe (possibly nil).
func (pl *Pipeline) Probe() *Probe { return pl.probe }

// Inject accepts a packet at the accelerator's ingress. The probe check
// happens *before* preprocessing (Figure 10), which is what creates the
// 3.2 µs window that hides the 2 µs vCPU exit. p.Core must not be
// negative.
func (pl *Pipeline) Inject(p *Packet) {
	now := pl.engine.Now()
	p.Arrival = now
	pl.nextID++
	if p.ID == 0 {
		p.ID = pl.nextID
	}
	pl.Injected++
	if p.Core >= len(pl.inFlight) {
		pl.inFlight = grown(pl.inFlight, p.Core)
	}
	pl.inFlight[p.Core]++
	pl.tracer.Emit(now, trace.KindPacketArrive, p.Core, p.ID, "")

	if pl.probe != nil {
		pl.probe.inspect(p.Core)
	}

	pl.line.Push(p)
}

// complete lands a packet that has left the transfer stage. One event
// covers both stages; the stage-boundary trace record carries its true
// timestamp, one transfer time before delivery.
func (pl *Pipeline) complete(p *Packet) {
	now := pl.engine.Now()
	pl.tracer.Emit(now.Add(-pl.cfg.Transfer), trace.KindPacketPreprocessDone, p.Core, p.ID, "")
	pl.tracer.Emit(now, trace.KindPacketDelivered, p.Core, p.ID, "")
	pl.inFlight[p.Core]--
	pl.deliver(p.Core, p)
}

// Window returns the total preprocessing window (stages ②+③).
func (pl *Pipeline) Window() sim.Duration { return pl.cfg.Preprocess + pl.cfg.Transfer }

// String describes the pipeline configuration.
func (pl *Pipeline) String() string {
	return fmt.Sprintf("accel(pre=%v xfer=%v probe=%v)", pl.cfg.Preprocess, pl.cfg.Transfer, pl.probe != nil && pl.probe.Enabled)
}
