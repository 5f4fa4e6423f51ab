package core

// Overload brownout ladder (ARCHITECTURE.md §6.6). Tai Chi's premise is
// that CP cores are lent against DP slack; a traffic spike erases the
// slack, the lending ring collapses, and the CP's VM-startup pipeline is
// the first casualty. Rather than queueing unboundedly, the node tracks
// a lending-pressure index and walks an overload state machine
//
//	normal → throttle → shed → brownout
//
// one rung at a time. The cluster admission gate reads the rung through
// Config.OverloadLevel and tightens its token bucket / shrinks its
// sojourn thresholds accordingly; brownout additionally suspends
// optional work on the node itself — audit vCPU pinning (OnBrownout
// hook) and sw-probe re-qualification (probation evidence stops
// accumulating). De-escalation is hysteretic and cooldown-gated,
// reusing the recovery-ladder pattern: each escalation stretches the
// dwell before the next de-escalation, so a flapping node settles high
// on the ladder instead of oscillating.

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/trace"
)

// OverloadState is the node's overload-ladder rung.
type OverloadState uint8

// Overload rungs, in escalation order. The ordinal doubles as the
// admission gate's level index and the overload_enter/exit trace Arg.
const (
	// OverloadNormal: no admission pressure.
	OverloadNormal OverloadState = iota
	// OverloadThrottle: the admission bucket tightens.
	OverloadThrottle
	// OverloadShed: the shedder's reach widens (sojourn thresholds
	// shrink); batch work starts draining away.
	OverloadShed
	// OverloadBrownout: batch is rejected at the gate and the node
	// suspends optional work (audit pinning, sw-probe re-qualification).
	OverloadBrownout
)

// String names the rung.
func (o OverloadState) String() string {
	switch o {
	case OverloadNormal:
		return "normal"
	case OverloadThrottle:
		return "throttle"
	case OverloadShed:
		return "shed"
	case OverloadBrownout:
		return "brownout"
	}
	return fmt.Sprintf("overload(%d)", uint8(o))
}

// OverloadPolicy tunes the ladder. The zero value of each field takes
// the matching DefaultOverloadPolicy value.
type OverloadPolicy struct {
	// SamplePeriod is the pressure-sampling cadence; each arming is
	// jittered from the dedicated "core.overload" stream.
	SamplePeriod sim.Duration
	// Window is the sliding window watchdog escalations are counted
	// over.
	Window sim.Duration
	// EscalationWeight is the pressure contributed by each watchdog
	// escalation inside the window.
	EscalationWeight float64
	// SmoothAlpha is the EWMA weight of the newest pressure sample.
	SmoothAlpha float64
	// EnterThrottle/EnterShed/EnterBrownout are the smoothed-pressure
	// thresholds for escalating onto each rung.
	EnterThrottle float64
	EnterShed     float64
	EnterBrownout float64
	// ExitHysteresis: de-escalating off a rung requires pressure below
	// that rung's entry threshold minus this margin.
	ExitHysteresis float64
	// Cooldown is the minimum dwell on a rung before de-escalation;
	// CooldownFactor stretches it after every escalation (capped at
	// MaxCooldown) so a flapping node settles rather than oscillates.
	Cooldown       sim.Duration
	CooldownFactor float64
	MaxCooldown    sim.Duration
	// JitterFrac perturbs each sample arming by ±frac.
	JitterFrac float64
}

// DefaultOverloadPolicy returns the tuning used by the overload
// experiments.
func DefaultOverloadPolicy() OverloadPolicy {
	return OverloadPolicy{
		SamplePeriod:     500 * sim.Microsecond,
		Window:           5 * sim.Millisecond,
		EscalationWeight: 0.15,
		SmoothAlpha:      0.25,
		EnterThrottle:    0.70,
		EnterShed:        0.85,
		EnterBrownout:    0.95,
		ExitHysteresis:   0.10,
		Cooldown:         2 * sim.Millisecond,
		CooldownFactor:   2.0,
		MaxCooldown:      100 * sim.Millisecond,
		JitterFrac:       0.1,
	}
}

func (p *OverloadPolicy) applyDefaults() {
	d := DefaultOverloadPolicy()
	if p.SamplePeriod == 0 {
		p.SamplePeriod = d.SamplePeriod
	}
	if p.Window == 0 {
		p.Window = d.Window
	}
	if p.EscalationWeight == 0 {
		p.EscalationWeight = d.EscalationWeight
	}
	if p.SmoothAlpha == 0 {
		p.SmoothAlpha = d.SmoothAlpha
	}
	if p.EnterThrottle == 0 {
		p.EnterThrottle = d.EnterThrottle
	}
	if p.EnterShed == 0 {
		p.EnterShed = d.EnterShed
	}
	if p.EnterBrownout == 0 {
		p.EnterBrownout = d.EnterBrownout
	}
	if p.ExitHysteresis == 0 {
		p.ExitHysteresis = d.ExitHysteresis
	}
	if p.Cooldown == 0 {
		p.Cooldown = d.Cooldown
	}
	if p.CooldownFactor == 0 {
		p.CooldownFactor = d.CooldownFactor
	}
	if p.MaxCooldown == 0 {
		p.MaxCooldown = d.MaxCooldown
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = d.JitterFrac
	}
}

// overloadState is the per-scheduler ladder state. Like defenseState and
// recoveryState it exists only when EnableOverload was called; the nil
// case is the default and must stay completely passive — no events, no
// RNG stream, no timers — so runs without overload control remain
// byte-identical to the pre-overload code.
type overloadState struct {
	pol OverloadPolicy
	r   *rand.Rand // "core.overload" stream, created only when armed

	state    OverloadState
	smoothed float64
	// enter holds each rung's entry threshold, indexed by rung.
	enter [OverloadBrownout + 1]float64
	// escalations holds watchdog-escalation instants inside Window.
	escalations sim.Window
	// lastChange is when the ladder last moved; de-escalation waits out
	// cooldown from here.
	lastChange sim.Time
	// cooldown is the dwell the current rung requires before
	// de-escalating; one backoff step per escalation.
	cooldown sim.Duration
	// peak is the highest rung reached (OverloadStats reporting).
	peak OverloadState
}

// OverloadStats is the read-only view fleet reporting and the cmd tools
// consume.
type OverloadStats struct {
	// Enabled reports whether EnableOverload armed the ladder.
	Enabled bool
	// State is the current rung.
	State OverloadState
	// Pressure is the current smoothed lending-pressure index.
	Pressure float64
	// Peak is the highest rung reached during the run.
	Peak OverloadState
}

// EnableOverload arms the brownout ladder: a jittered sampling loop that
// derives the lending-pressure index and walks the overload state
// machine. Idempotent; runs that never call it keep their event streams
// untouched.
func (s *Scheduler) EnableOverload(pol OverloadPolicy) {
	if s.overload != nil {
		return
	}
	pol.applyDefaults()
	s.overload = &overloadState{
		pol:         pol,
		r:           s.node.Stream("core.overload"),
		enter:       [...]float64{OverloadThrottle: pol.EnterThrottle, OverloadShed: pol.EnterShed, OverloadBrownout: pol.EnterBrownout},
		escalations: sim.Window{Span: pol.Window},
		cooldown:    pol.Cooldown,
	}
	s.armOverloadSample()
}

// OverloadState returns the current rung (OverloadNormal when the
// ladder is not armed).
func (s *Scheduler) OverloadState() OverloadState {
	if s.overload == nil {
		return OverloadNormal
	}
	return s.overload.state
}

// OverloadStats returns the ladder's current state (zero value when the
// ladder is not armed).
func (s *Scheduler) OverloadStats() OverloadStats {
	ov := s.overload
	if ov == nil {
		return OverloadStats{}
	}
	return OverloadStats{
		Enabled:  true,
		State:    ov.state,
		Pressure: ov.smoothed,
		Peak:     ov.peak,
	}
}

// overloadNoteEscalation records one reclaim-watchdog escalation into
// the pressure window (no-op unless the ladder is armed).
func (s *Scheduler) overloadNoteEscalation() {
	if ov := s.overload; ov != nil {
		ov.escalations.Add(s.engine.Now())
	}
}

// overloadBrownedOut reports whether optional work is suspended.
func (s *Scheduler) overloadBrownedOut() bool {
	return s.overload != nil && s.overload.state == OverloadBrownout
}

// armOverloadSample schedules the next pressure sample, jittered from
// the dedicated "core.overload" stream.
func (s *Scheduler) armOverloadSample() {
	ov := s.overload
	delay := sim.Jitter(ov.r, ov.pol.SamplePeriod, ov.pol.JitterFrac)
	s.engine.ScheduleNamed(delay, "core.overload", func() {
		s.sampleOverload()
		s.armOverloadSample()
	})
}

// sampleOverload derives the lending-pressure index — the fraction of DP
// cores the DP is holding onto (neither lent to a vCPU nor offered idle;
// lending slack erased) plus the weighted watchdog escalations in the
// sliding window — smooths it, and walks the ladder one rung toward the
// pressure's target, escalating freely and de-escalating only past the
// hysteresis margin and the cooldown dwell.
func (s *Scheduler) sampleOverload() {
	ov := s.overload
	now := s.engine.Now()

	busy := 0
	for _, id := range s.order {
		slot := s.slots[id]
		if slot.occupant == nil && slot.pendingEnter == nil && !slot.available {
			busy++
		}
	}
	sample := 0.0
	if len(s.order) > 0 {
		sample = float64(busy) / float64(len(s.order))
	}
	sample += ov.pol.EscalationWeight * float64(ov.escalations.Count(now))
	ov.smoothed = ov.pol.SmoothAlpha*sample + (1-ov.pol.SmoothAlpha)*ov.smoothed

	// The target is the highest rung whose entry threshold is reached.
	target := OverloadBrownout
	for target > OverloadNormal && ov.smoothed < ov.enter[target] {
		target--
	}

	switch {
	case target > ov.state:
		s.overloadEscalate()
	case target < ov.state:
		// Hysteresis: pressure must clear the current rung's entry
		// threshold by the margin, and the rung's cooldown must have
		// elapsed, before stepping down one rung.
		if ov.smoothed < ov.enter[ov.state]-ov.pol.ExitHysteresis &&
			now.Sub(ov.lastChange) >= ov.cooldown {
			s.overloadDeescalate()
		}
	}
}

// overloadEscalate moves one rung up, stretches the de-escalation
// cooldown, and on the brownout rung suspends optional work via the
// OnBrownout hook.
func (s *Scheduler) overloadEscalate() {
	ov := s.overload
	ov.state++
	if ov.state > ov.peak {
		ov.peak = ov.state
	}
	ov.lastChange = s.engine.Now()
	s.OverloadEnters.Inc()
	// CPU -1: like the defense ladder, a scheduler-wide transition.
	s.node.Tracer.Emit(ov.lastChange, trace.KindOverloadEnter, -1,
		int64(ov.state), ov.state.String())
	ov.cooldown = sim.Backoff{Factor: ov.pol.CooldownFactor, Max: ov.pol.MaxCooldown}.Next(ov.cooldown)
	if ov.state == OverloadBrownout && s.OnBrownout != nil {
		s.OnBrownout()
	}
}

// overloadDeescalate moves one rung down.
func (s *Scheduler) overloadDeescalate() {
	ov := s.overload
	ov.state--
	ov.lastChange = s.engine.Now()
	s.OverloadExits.Inc()
	s.node.Tracer.Emit(ov.lastChange, trace.KindOverloadExit, -1,
		int64(ov.state), ov.state.String())
}
