package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The reference task is a fixed piece of pure-Go work shaped like a
// discrete-event simulator: a timer heap popped and refilled, a freshly
// allocated event per step, an event log kept live, and a map of
// counters. It uses nothing from the repository, so no change to the
// program moves it; what moves it is the host. A shared 2-CPU VM was
// seen to change speed by a fifth within a minute, in CPU time as much
// as in wall time, and the reference task slows with it. Host
// time per op is therefore reported in reference-task units: the op's
// seconds divided by the mean seconds of the reference task timed just
// before and just after it.

// refEvent is one reference-task event; next chains it to the event it
// replaced, as a simulator's callbacks hold pointers into live state.
type refEvent struct {
	at   int64
	next *refEvent
	data [4]int64
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refSteps sizes the reference task: about 0.5 s on a 2-CPU Xeon VM.
const refSteps = 600_000

// refSink keeps the reference task's result, so the compiler keeps the
// work.
var refSink atomic.Int64

// refTask runs the reference task once.
func refTask() {
	r := rand.New(rand.NewSource(1))
	q := make(refQueue, 0, 1<<12)
	for i := 0; i < 1<<12; i++ {
		heap.Push(&q, &refEvent{at: r.Int63n(1 << 20)})
	}
	var log []*refEvent
	counts := map[int64]int{}
	for i := 0; i < refSteps; i++ {
		e := heap.Pop(&q).(*refEvent)
		counts[e.at&0xffff]++
		if i%4 == 0 {
			log = append(log, e)
		}
		heap.Push(&q, &refEvent{at: e.at + r.Int63n(1<<20), next: e})
	}
	sum := int64(len(counts))
	for _, e := range log {
		sum += e.at
	}
	refSink.Add(sum)
}

// refSeconds runs procs copies of the reference task at once, one per
// P an op gets, after a GC, and returns the wall seconds until all are
// done.
func refSeconds(procs int) float64 {
	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refTask()
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}
