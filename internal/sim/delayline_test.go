package sim

import (
	"reflect"
	"testing"
)

// tieRun is one randomized scenario's observable outcome.
type tieRun struct {
	log      []int
	fired    uint64
	dispatch []DispatchClass
}

// runTieScenario drives a seeded mix of delay-line pushes and plain
// Schedule/ScheduleNamed/At calls whose instants collide, including pushes
// and schedules made from inside firing callbacks. With useLine the pushes
// go through a DelayLine; otherwise each value is scheduled on its own,
// which is the reference the line must match event for event.
func runTieScenario(seed int64, useLine bool) tieRun {
	const delay = 4
	e := NewEngine()
	prof := NewProfile()
	e.EnableProfile(prof)
	r := NewRNG(seed).Stream("sim.delayline-tie")
	var out tieRun
	id := 0
	var push func(v int)
	var op func(depth int)
	deliver := func(v int) {
		out.log = append(out.log, v)
		if r.Intn(3) == 0 {
			op(1)
		}
	}
	if useLine {
		push = NewDelayLine(e, delay, "line", deliver).Push
	} else {
		push = func(v int) { e.ScheduleNamed(delay, "line", func() { deliver(v) }) }
	}
	// op performs one random action; plain events log negated ids and,
	// below the depth cap, may themselves act.
	op = func(depth int) {
		id++
		v := id
		switch r.Intn(4) {
		case 0, 1:
			push(v)
		case 2:
			names := []string{"", "a", "line"}
			e.ScheduleNamed(Duration(r.Intn(delay+2)), names[r.Intn(len(names))], func() {
				out.log = append(out.log, -v)
				if depth < 3 && r.Intn(2) == 0 {
					op(depth + 1)
				}
			})
		default:
			e.At(e.Now().Add(Duration(r.Intn(delay+2))), func() {
				out.log = append(out.log, -v)
				if depth < 3 && r.Intn(2) == 0 {
					op(depth + 1)
				}
			})
		}
	}
	for i := 0; i < 60; i++ {
		e.At(Time(r.Intn(24)), func() {
			for k := r.Intn(4); k >= 0; k-- {
				op(0)
			}
		})
	}
	// Run to a horizon first so peek meets the line's event too.
	e.Run(12)
	e.RunUntilIdle()
	out.fired = e.Fired()
	out.dispatch = prof.Dispatch()
	return out
}

func TestDelayLineMatchesSchedulePerValue(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		got := runTieScenario(seed, true)
		want := runTieScenario(seed, false)
		if len(want.log) < 100 {
			t.Fatalf("seed %d: scenario too small (%d dispatches)", seed, len(want.log))
		}
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				t.Fatalf("seed %d: dispatch %d diverges\nline: %v\nref:  %v", seed, i, got.log[:min(i+1, len(got.log))], want.log[:i+1])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d dispatches, reference %d", seed, len(got.log), len(want.log))
		}
		if got.fired != want.fired {
			t.Fatalf("seed %d: Fired = %d, reference %d", seed, got.fired, want.fired)
		}
		if !reflect.DeepEqual(got.dispatch, want.dispatch) {
			t.Fatalf("seed %d: Profile.Dispatch = %v, reference %v", seed, got.dispatch, want.dispatch)
		}
	}
}

func TestDelayLineRingStaysBounded(t *testing.T) {
	e := NewEngine()
	delivered := 0
	l := NewDelayLine(e, 10, "line", func(int) { delivered++ })
	// Two pushes every 3 ns with a 10 ns delay: at most 8 values wait at
	// once, however long the line runs.
	tk := e.NewTicker(3, func() {
		l.Push(0)
		l.Push(1)
	})
	e.Run(300_000)
	tk.Stop()
	e.RunUntilIdle()
	if delivered != 200_000 {
		t.Fatalf("delivered %d values, want 200000", delivered)
	}
	if len(l.ring) > 16 {
		t.Fatalf("ring grew to %d slots for at most 8 values in flight", len(l.ring))
	}
	if l.n != 0 || e.Pending() != 0 {
		t.Fatalf("n = %d, Pending = %d after draining", l.n, e.Pending())
	}
}

func TestDelayLineIsOneQueueEntry(t *testing.T) {
	e := NewEngine()
	var got []Time
	l := NewDelayLine(e, 5, "line", func(Time) { got = append(got, e.Now()) })
	for i := 0; i < 10; i++ {
		l.Push(0)
	}
	if l.n != 10 || e.Pending() != 1 {
		t.Fatalf("n = %d, Pending = %d; want 10 values in one entry", l.n, e.Pending())
	}
	e.RunUntilIdle()
	if len(got) != 10 || got[9] != 5 || e.Fired() != 10 {
		t.Fatalf("deliveries %v, Fired = %d; want 10 at t=5", got, e.Fired())
	}
}

func TestDelayLineZeroDelayQueuesBehindNow(t *testing.T) {
	e := NewEngine()
	var got []string
	l := NewDelayLine(e, 0, "line", func(s string) { got = append(got, s) })
	e.Schedule(0, func() {
		l.Push("pushed")
		got = append(got, "caller")
	})
	e.RunUntilIdle()
	if !reflect.DeepEqual(got, []string{"caller", "pushed"}) {
		t.Fatalf("order %v", got)
	}
}

func TestDelayLineRejectsBadConfig(t *testing.T) {
	for name, build := range map[string]func(){
		"negative delay": func() { NewDelayLine(NewEngine(), -1, "line", func(int) {}) },
		"nil callback":   func() { NewDelayLine[int](NewEngine(), 1, "line", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			build()
		}()
	}
}
