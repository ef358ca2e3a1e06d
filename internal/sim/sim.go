// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock (in seconds) and an event queue.
// Events scheduled for the same instant fire in the order they were
// scheduled, which — together with an explicitly seeded random source —
// makes every simulation run exactly reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	index    int // heap index; -1 once removed
	canceled bool
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Engine struct {
	now    Time
	seq    uint64
	queue  eventHeap
	rng    *rand.Rand
	nSteps uint64
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute simulated time t.
// Scheduling in the past panics: it indicates a logic error in the caller.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Every schedules fn to run first at time start and then every interval
// seconds for as long as fn returns true.
func (e *Engine) Every(start, interval Time, fn func() bool) {
	if interval <= 0 {
		panic("sim: Every interval must be positive")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(interval, tick)
		}
	}
	e.At(start, tick)
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired or was cancelled is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.index < 0 {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	heap.Remove(&e.queue, ev.index)
}

// Step executes the next event, if any, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.nSteps++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled for later remain queued.
func (e *Engine) RunUntil(t Time) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.canceled {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for d seconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
