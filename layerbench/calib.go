package main

import (
	"time"
)

// Reference seconds. On a shared virtual machine the CPU time a fixed
// piece of simulator work takes drifts by a third over tens of minutes,
// as other tenants come and go on the cores behind the vCPUs, even with
// steal time left out. The drift slows branchy, cache-bound code like
// the simulator's while leaving a register-only loop almost untouched.
// So the benchmark times a small reference kernel of the same character
// (a binary heap and a hash map, L2-sized) in short chunks interleaved
// with the workload, and converts the workload's CPU seconds into
// reference seconds: CPU seconds × the kernel's speed at the time ÷ its
// nominal speed. A slowdown that hits both cancels out; a change to the
// simulator moves only the workload's side. The kernel is the
// benchmark's own code and allocates nothing.
const (
	refIters = 20_000 // kernel iterations per chunk, about 5 ms
	// refEvery is the wall time of workload between chunks; contention
	// changes over half a second to a few seconds, so this tracks it.
	refEvery = 40 * time.Millisecond
	// refNominal is the kernel's speed, in iterations per second, that
	// defines a reference second: about its speed on an idle 2.1 GHz
	// Intel Xeon core.
	refNominal = 4e6
	// refWindow is how many chunks on each side a segment's kernel speed
	// is the median over, so one chunk that a GC cycle or an interrupt
	// slowed does not colour its segment.
	refWindow = 2
	refKeys   = 1 << 16
)

// refKernel is the reference kernel's state: a binary min-heap and a
// hash map, about 2.5 MB in all, and no pointers for the GC to scan.
type refKernel struct {
	heap []uint64
	vals map[uint32]uint32
	keys []uint32
	x    uint64
	sink uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{vals: make(map[uint32]uint32, refKeys), keys: make([]uint32, refKeys), heap: make([]uint64, 0, refKeys), x: 1}
	for i := range k.keys {
		key := uint32(i)*2654435761 ^ 0x5bd1e995
		k.keys[i] = key
		k.vals[key] = uint32(i)
	}
	for i := 0; i < refKeys/2; i++ {
		k.push(uint64(i * 7919 % 65521))
	}
	k.chunk() // warm up
	return k
}

func (k *refKernel) push(v uint64) {
	h := append(k.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() uint64 {
	h := k.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	k.heap = h
	return top
}

// chunk runs refIters iterations: pop the heap's minimum, push a
// pseudo-random successor, and look up a pseudo-random key.
func (k *refKernel) chunk() {
	x := k.x
	for i := 0; i < refIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k.push(k.pop() + (x>>40)&0xffff)
		k.sink += uint64(k.vals[k.keys[(x>>24)%refKeys]])
	}
	k.x = x
}

// rate runs one chunk and returns the kernel's speed in iterations per
// CPU second, with the chunk's CPU seconds.
func (k *refKernel) rate() (rate, cpu float64) {
	t0 := cpuTime()
	k.chunk()
	cpu = (cpuTime() - t0).Seconds()
	return refIters / cpu, cpu
}

// segment is a stretch of workload CPU time and the kernel speed
// measured right after it.
type segment struct{ cpu, rate float64 }

// clock measures a timed phase in reference seconds. After every event
// the phase calls tick; every refEvery it closes a segment and runs a
// kernel chunk, whose time is not part of the phase.
type clock struct {
	ref    *refKernel
	next   time.Time     // wall time of the next chunk
	cpu0   time.Duration // CPU time the open segment began
	segs   []segment     // closed segments since the last lap
	refCPU float64       // CPU seconds spent in kernel chunks
}

func newClock() *clock { return &clock{ref: newRefKernel()} }

// start opens the first segment of a phase.
func (c *clock) start() {
	c.segs = c.segs[:0]
	c.cpu0 = cpuTime()
	c.next = time.Now().Add(refEvery)
}

// tick closes the open segment once refEvery of wall time has passed.
func (c *clock) tick() {
	if time.Now().Before(c.next) {
		return
	}
	c.close()
}

func (c *clock) close() {
	cpu := (cpuTime() - c.cpu0).Seconds()
	r, rc := c.ref.rate()
	c.refCPU += rc
	c.segs = append(c.segs, segment{cpu: cpu, rate: r})
	c.cpu0 = cpuTime()
	c.next = time.Now().Add(refEvery)
}

// lap closes the open segment and returns the reference seconds and
// the plain CPU seconds of the phase since start or the previous lap.
func (c *clock) lap() (ref, cpu float64) {
	c.close()
	rates := make([]float64, 0, 2*refWindow+1)
	for i, s := range c.segs {
		rates = rates[:0]
		for j := max(i-refWindow, 0); j < min(i+refWindow+1, len(c.segs)); j++ {
			rates = append(rates, c.segs[j].rate)
		}
		ref += s.cpu * median(rates) / refNominal
		cpu += s.cpu
	}
	c.segs = c.segs[:0]
	return ref, cpu
}

// factor is the current ratio of the kernel's speed to its nominal
// speed, the median over three chunks; set-up, one long call, is
// converted to reference seconds with the factors just before and
// after it.
func (c *clock) factor() float64 {
	var rs [3]float64
	for i := range rs {
		rs[i], _ = c.ref.rate()
	}
	return median(rs[:]) / refNominal
}
