package sim

import "fmt"

// Event is a scheduled callback in simulated time. Events are created via
// Engine.Schedule / Engine.At and may be cancelled before they fire.
type Event struct {
	when     Time
	seq      uint64 // FIFO tiebreak among events at the same instant
	fn       func()
	canceled bool
	name     string // optional label for debugging/tracing
}

// When returns the instant the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel is O(1): it only sets a flag,
// and the engine drops the cancelled event when it reaches the front of
// the queue.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether Cancel has been called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Name returns the optional debug label attached to the event.
func (e *Event) Name() string { return e.name }

// before is the queue order: earlier instant first, then schedule order.
// Every queued event holds a distinct seq, so the order is total and the
// pop sequence does not depend on the heap's shape.
func before(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap ordered by before. Four children per
// node halve the depth of a binary heap, so a push climbs half as many
// levels and a pop moves half as many slots.
type eventQueue []*Event

func (q *eventQueue) push(ev *Event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !before(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(h[c], h[least]) {
				least = c
			}
		}
		if !before(h[least], last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
	return top
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all simulated components run on the goroutine that calls
// Run.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	fired   uint64
	stopped bool
	// Limit guards against runaway simulations: Run panics after this many
	// events if non-zero.
	Limit uint64
	// prof, when non-nil, collects self-observation counters (see
	// Profile). Nil is the fault-free fast path: one pointer test per
	// dispatch, no allocation, no behavioural difference.
	prof *Profile
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, useful for
// instrumentation and runaway detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of entries currently queued, including
// cancelled events that have not yet been popped. A DelayLine counts as
// one entry while it holds values, however many it holds.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule queues fn to run after delay. A negative delay panics: the past
// is immutable in a discrete-event simulation.
func (e *Engine) Schedule(delay Duration, fn func()) *Event {
	return e.schedule(e.now.Add(delay), "", fn)
}

// ScheduleNamed is Schedule with a debug label attached to the event.
func (e *Engine) ScheduleNamed(delay Duration, name string, fn func()) *Event {
	return e.schedule(e.now.Add(delay), name, fn)
}

// At queues fn to run at the absolute instant t, which must not precede the
// current time.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.schedule(t, "", fn)
}

func (e *Engine) schedule(t Time, name string, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	ev := &Event{when: t, seq: e.seq, fn: fn, name: name}
	e.seq++
	e.enqueue(ev)
	return ev
}

// enqueue pushes an armed event onto the queue.
func (e *Engine) enqueue(ev *Event) {
	e.queue.push(ev)
	if e.prof != nil {
		e.prof.noteSchedule(len(e.queue))
	}
}

// Stop makes the current Run call return after the in-flight event
// completes. Queued events remain queued and a subsequent Run resumes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty. Cancelled events are discarded
// without executing and without counting as a step.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.canceled {
			continue
		}
		if ev.when < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.when
		e.fired++
		if p := e.prof; p != nil {
			var wall int64
			if p.Clock != nil {
				start := p.Clock()
				ev.fn()
				wall = p.Clock() - start
			} else {
				ev.fn()
			}
			p.noteDispatch(ev.name, wall)
			return true
		}
		ev.fn()
		return true
	}
	return false
}

// Run executes events until no events remain, Stop is called, or the clock
// would pass `until` (events at exactly `until` do fire). It returns the
// number of events executed by this call.
func (e *Engine) Run(until Time) uint64 {
	e.stopped = false
	start := e.fired
	for !e.stopped {
		// Peek to honor the horizon without consuming the event.
		next := e.peek()
		if next == nil {
			break
		}
		if next.when > until {
			// Advance the clock to the horizon so callers observe a full
			// interval elapsed even when the system went idle early.
			e.now = until
			break
		}
		e.Step()
		if e.Limit != 0 && e.fired-start > e.Limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded (runaway simulation?)", e.Limit))
		}
	}
	if e.now < until && e.peek() == nil {
		e.now = until
	}
	return e.fired - start
}

// RunUntilIdle executes events until the queue drains or Stop is called.
func (e *Engine) RunUntilIdle() uint64 {
	e.stopped = false
	start := e.fired
	for !e.stopped && e.Step() {
		if e.Limit != 0 && e.fired-start > e.Limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded (runaway simulation?)", e.Limit))
		}
	}
	return e.fired - start
}

// peek returns the earliest non-cancelled event without executing it,
// discarding cancelled events as it goes.
func (e *Engine) peek() *Event {
	for len(e.queue) > 0 {
		if e.queue[0].canceled {
			e.queue.pop()
			continue
		}
		return e.queue[0]
	}
	return nil
}

// Ticker invokes fn every period until cancelled. fn observes the engine
// clock already advanced to the tick instant.
type Ticker struct {
	engine *Engine
	period Duration
	fn     func()
	ev     *Event
	done   bool
}

// NewTicker starts a periodic callback with the first firing one period
// from now.
func (e *Engine) NewTicker(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.engine.Schedule(t.period, func() {
		if t.done {
			return
		}
		t.fn()
		if !t.done {
			t.arm()
		}
	})
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.done = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}
