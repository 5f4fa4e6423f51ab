package sim

// DelayLine is a fixed-delay FIFO: every value pushed onto it is handed to
// the line's callback exactly delay after the push. Because the delay is
// fixed and the clock never runs backwards, values leave in the order they
// entered, so the line needs only one engine event, armed for its oldest
// value, instead of one event per value.
//
// The line is observably the same as one ScheduleNamed(delay, name, ...)
// call per value. Push reserves the value's sequence number exactly as
// Schedule would, and the armed event carries the oldest value's
// (when, seq), so same-instant ties against every other event resolve
// the same way. Each delivery is one Step: it counts once in Fired and
// once under the line's name in Profile.Dispatch. Only Pending and the
// profile's queue high-water mark differ, since a non-empty line is one
// queue entry.
type DelayLine[T any] struct {
	engine *Engine
	delay  Duration
	fn     func(T)
	ev     Event
	// ring holds the queued values oldest-first from head; its length is
	// a power of two so the wrap is a mask.
	ring []lineSlot[T]
	head int
	n    int
}

type lineSlot[T any] struct {
	when Time
	seq  uint64
	v    T
}

// NewDelayLine returns an empty line on engine e that delivers each pushed
// value to fn after delay, dispatching under the event class name.
func NewDelayLine[T any](e *Engine, delay Duration, name string, fn func(T)) *DelayLine[T] {
	if delay < 0 {
		panic("sim: delay line with negative delay")
	}
	if fn == nil {
		panic("sim: delay line with nil callback")
	}
	l := &DelayLine[T]{engine: e, delay: delay, fn: fn}
	l.ev = Event{fn: l.fire, name: name}
	return l
}

// Push queues v for delivery one delay from now.
func (l *DelayLine[T]) Push(v T) {
	if l.n == len(l.ring) {
		l.grow()
	}
	e := l.engine
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = lineSlot[T]{when: e.now.Add(l.delay), seq: e.seq, v: v}
	e.seq++
	l.n++
	if l.n == 1 {
		l.arm()
	}
}

// arm queues the line's event for its oldest value.
func (l *DelayLine[T]) arm() {
	s := &l.ring[l.head]
	l.ev.when, l.ev.seq = s.when, s.seq
	l.engine.enqueue(&l.ev)
}

// fire delivers the oldest value. The line re-arms before the callback
// runs, so values the callback pushes queue behind the ones already
// waiting.
func (l *DelayLine[T]) fire() {
	s := &l.ring[l.head]
	v := s.v
	*s = lineSlot[T]{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		l.arm()
	}
	l.fn(v)
}

// grow doubles the ring, unwrapping the queued values to its front. The
// ring never shrinks, so its size is bounded by the most values ever
// in flight at once.
func (l *DelayLine[T]) grow() {
	size := 2 * len(l.ring)
	if size == 0 {
		size = 8
	}
	ring := make([]lineSlot[T], size)
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}
