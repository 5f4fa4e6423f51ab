package accel

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestPipelineTiming(t *testing.T) {
	e := sim.NewEngine()
	tr := trace.New(0)
	var deliveredAt sim.Time
	var deliveredCore int
	pl := NewPipeline(e, DefaultConfig(), nil, tr, func(core int, p *Packet) {
		deliveredAt = e.Now()
		deliveredCore = core
	})
	e.At(sim.Time(10*sim.Microsecond), func() {
		pl.Inject(&Packet{Core: 3, Work: sim.Microsecond})
	})
	e.RunUntilIdle()
	want := sim.Time(10*sim.Microsecond) + sim.Time(3200)
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v (arrival+3.2µs)", deliveredAt, want)
	}
	if deliveredCore != 3 {
		t.Fatalf("delivered to core %d", deliveredCore)
	}
	if pl.Window() != 3200 {
		t.Fatalf("Window = %v", pl.Window())
	}
}

func TestPipelineTraceBreakdown(t *testing.T) {
	e := sim.NewEngine()
	tr := trace.New(0)
	pl := NewPipeline(e, DefaultConfig(), nil, tr, func(int, *Packet) {})
	for i := 0; i < 5; i++ {
		pl.Inject(&Packet{Core: 0})
	}
	e.RunUntilIdle()
	stages := tr.PacketBreakdown()
	if stages[0].Mean != 2700 || stages[1].Mean != 500 {
		t.Fatalf("breakdown %v/%v, want 2.7µs/500ns", stages[0].Mean, stages[1].Mean)
	}
	if pl.Injected != 5 {
		t.Fatalf("Injected = %d", pl.Injected)
	}
}

func TestProbeFiresOnVState(t *testing.T) {
	e := sim.NewEngine()
	tr := trace.New(0)
	probe := NewProbe(500 * sim.Nanosecond)
	var irqCore = -1
	var irqAt sim.Time
	probe.OnIRQ = func(core int) {
		irqCore = core
		irqAt = e.Now()
	}
	probe.SetState(2, VState)
	pl := NewPipeline(e, DefaultConfig(), probe, tr, func(int, *Packet) {})
	e.At(sim.Time(sim.Microsecond), func() { pl.Inject(&Packet{Core: 2}) })
	e.RunUntilIdle()
	if irqCore != 2 {
		t.Fatalf("IRQ core = %d", irqCore)
	}
	// IRQ arrives 500ns after packet arrival — well before the 3.2µs
	// delivery, which is the whole point of the probe.
	if want := sim.Time(sim.Microsecond).Add(500 * sim.Nanosecond); irqAt != want {
		t.Fatalf("IRQ at %v, want %v", irqAt, want)
	}
	if probe.IRQs != 1 {
		t.Fatalf("IRQs = %d", probe.IRQs)
	}
}

func TestProbeSilentOnPState(t *testing.T) {
	e := sim.NewEngine()
	probe := NewProbe(500 * sim.Nanosecond)
	fired := false
	probe.OnIRQ = func(int) { fired = true }
	pl := NewPipeline(e, DefaultConfig(), probe, trace.New(0), func(int, *Packet) {})
	pl.Inject(&Packet{Core: 0}) // default P-state
	e.RunUntilIdle()
	if fired {
		t.Fatal("probe fired for P-state core")
	}
}

func TestProbeDisabled(t *testing.T) {
	e := sim.NewEngine()
	probe := NewProbe(500 * sim.Nanosecond)
	probe.Enabled = false
	probe.SetState(0, VState)
	fired := false
	probe.OnIRQ = func(int) { fired = true }
	pl := NewPipeline(e, DefaultConfig(), probe, trace.New(0), func(int, *Packet) {})
	pl.Inject(&Packet{Core: 0})
	e.RunUntilIdle()
	if fired {
		t.Fatal("disabled probe fired")
	}
}

func TestProbeStateTable(t *testing.T) {
	p := NewProbe(0)
	if p.State(7) != PState {
		t.Fatal("default state should be P")
	}
	p.SetState(7, VState)
	if p.State(7) != VState {
		t.Fatal("SetState")
	}
	if PState.String() != "P" || VState.String() != "V" {
		t.Fatal("state names")
	}
}

func TestPacketIDsAssigned(t *testing.T) {
	e := sim.NewEngine()
	pl := NewPipeline(e, DefaultConfig(), nil, trace.New(0), func(int, *Packet) {})
	a, b := &Packet{Core: 0}, &Packet{Core: 0}
	pl.Inject(a)
	pl.Inject(b)
	if a.ID == 0 || b.ID == 0 || a.ID == b.ID {
		t.Fatalf("IDs %d/%d", a.ID, b.ID)
	}
}

func TestNilSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil sink did not panic")
		}
	}()
	NewPipeline(sim.NewEngine(), DefaultConfig(), nil, nil, nil)
}

func TestUnseenAndNegativeCoresReadIdle(t *testing.T) {
	e := sim.NewEngine()
	probe := NewProbe(0)
	pl := NewPipeline(e, DefaultConfig(), probe, nil, func(int, *Packet) {})
	pl.Inject(&Packet{Core: 1})
	for _, core := range []int{-1, 0, 2, 1000} {
		if n := pl.InFlight(core); n != 0 {
			t.Errorf("InFlight(%d) = %d, want 0", core, n)
		}
		if s := probe.State(core); s != PState {
			t.Errorf("State(%d) = %v, want P", core, s)
		}
		if probe.InjectSpurious(core) {
			t.Errorf("InjectSpurious(%d) fired on a P-state core", core)
		}
	}
	if n := pl.InFlight(1); n != 1 {
		t.Fatalf("InFlight(1) = %d, want 1", n)
	}
}

func TestVStateFlipSeesPacketsInsideLine(t *testing.T) {
	e := sim.NewEngine()
	tr := trace.New(0)
	probe := NewProbe(500 * sim.Nanosecond)
	var irqs []int
	probe.OnIRQ = func(core int) { irqs = append(irqs, core) }
	pl := NewPipeline(e, DefaultConfig(), probe, tr, func(int, *Packet) {})
	for i := 0; i < 3; i++ {
		pl.Inject(&Packet{Core: 5})
	}
	// Mid-pipeline: core 5 has three packets inside the line, core 6 none.
	e.At(sim.Time(sim.Microsecond), func() {
		if n := pl.InFlight(5); n != 3 {
			t.Errorf("InFlight(5) = %d mid-pipeline, want 3", n)
		}
		probe.SetState(5, VState)
		probe.SetState(6, VState)
	})
	// After delivery: a fresh V-state episode on core 5 finds nothing.
	e.At(sim.Time(5*sim.Microsecond), func() {
		if n := pl.InFlight(5); n != 0 {
			t.Errorf("InFlight(5) = %d after delivery, want 0", n)
		}
		probe.SetState(5, PState)
		probe.SetState(5, VState)
	})
	e.RunUntilIdle()
	if probe.IRQs != 1 || len(irqs) != 1 || irqs[0] != 5 {
		t.Fatalf("IRQs = %d to cores %v, want one to core 5", probe.IRQs, irqs)
	}
	var notes []string
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindProbeIRQ {
			notes = append(notes, ev.Note)
		}
	}
	if len(notes) != 1 || notes[0] != "inflight-at-vstate" {
		t.Fatalf("probe IRQ records %q, want one inflight-at-vstate", notes)
	}
}
