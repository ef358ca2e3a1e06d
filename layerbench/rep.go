package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// Pass modes of one repetition.
const (
	modeUntraced     = "untraced"      // end-to-end timing, no per-step hooks
	modeTraced       = "traced"        // per-step attribution, spans, probes
	modeObserversOff = "observers-off" // untraced, churn-observed's observers off
	modeSetup        = "setup"         // one build, timed; no timed phase
)

// setupSample is one timed build, in reference seconds.
type setupSample struct {
	Total, Platform, Onboard, Engine float64
}

// repResult is what one child process reports for one repetition.
type repResult struct {
	Setups []setupSample

	// The measured span of every simulation, summed: simulated seconds,
	// reference seconds (calib.go), plain CPU seconds and requests
	// served. Drain tails are left out.
	SimS, HostS, CPUS float64
	Served            int64
	PhaseS            float64 // reference seconds of the whole timed phases, drains included
	Mallocs           uint64  // heap objects allocated in the timed phase
	Bytes             uint64  // heap bytes allocated in the timed phase
	GCCPUFrac         float64 // GC share of process CPU in the timed phase
	HeapLiveMB        float64 // live heap after set-up (median over simulations)

	Attempted, Failed int64
	Outputs           outputs // summed over simulations (floats averaged)
	Digest            string  // hash of every simulation's outputs
	Errors            []string

	// Layers holds the traced pass's per-layer metrics.
	Layers map[string]float64 `json:",omitempty"`
	// Detail holds human-readable sample summaries of the traced pass.
	Detail []string `json:",omitempty"`
}

// simSeed derives the seed of simulation k of a repetition.
func simSeed(seed int64, k, sims int) int64 {
	if sims == 1 {
		return seed
	}
	return seed*1000 + int64(k)
}

// runRep runs one repetition: for each of the workload's simulations,
// build it, run the timed phase in the given mode, then check the
// outputs outside the timing.
func runRep(name string, seed int64, tiny bool, mode, spansPath string) (repResult, error) {
	var res repResult
	pr, err := paramsFor(name, tiny)
	if err != nil {
		return res, err
	}
	clk := newClock()
	// timedBuild builds one simulation and records its set-up time in
	// reference seconds.
	timedBuild := func(seed int64, observers bool) (*instance, error) {
		f0 := clk.factor()
		in, err := build(name, seed, tiny, observers)
		if err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, in.setup.sample((f0+clk.factor())/2))
		return in, nil
	}
	if mode == modeSetup {
		_, err := timedBuild(seed, true)
		return res, err
	}
	var (
		tr            *tracer
		gcCPU, allCPU float64
		heapMB        []float64
	)
	if mode == modeTraced {
		tr = newTracer()
	}
	digest := sha256.New()
	for k := 0; k < pr.sims; k++ {
		in, err := timedBuild(simSeed(seed, k, pr.sims), mode != modeObserversOff)
		if err != nil {
			return res, err
		}

		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		heapMB = append(heapMB, float64(ms0.HeapAlloc)/(1<<20))

		step := func() { in.p.Eng.Step() }
		if tr != nil {
			step = tr.attach(in)
		}
		served := func() int64 {
			if in.req == nil {
				return 0
			}
			return in.req.Stats().Served
		}
		gc0, cpu0 := cpuSeconds()
		refCPU0, served0 := clk.refCPU, served()
		measured := false
		clk.start()
		in.advance(func() { step(); clk.tick() }, func() {
			ref, cpu := clk.lap()
			res.PhaseS += ref
			if !measured {
				res.HostS, res.CPUS = res.HostS+ref, res.CPUS+cpu
				res.Served += served() - served0
				measured = true
			}
		})
		gc1, cpu1 := cpuSeconds()
		gcCPU += gc1 - gc0
		allCPU += cpu1 - cpu0 - (clk.refCPU - refCPU0)
		runtime.ReadMemStats(&ms1)
		if tr != nil {
			tr.detach()
		}

		res.SimS += in.simSpan
		res.Mallocs += ms1.Mallocs - ms0.Mallocs
		res.Bytes += ms1.TotalAlloc - ms0.TotalAlloc

		o := collect(in)
		digest.Write([]byte(o.canonical() + "\n"))
		res.Outputs.accumulate(o)
		res.Errors = append(res.Errors, check(in, o)...)
		a, f := in.ops()
		res.Attempted += a
		res.Failed += f
		if tr != nil && k == pr.sims-1 {
			tr.probe(in)
		}
	}
	res.Outputs.average(pr.sims)
	res.Digest = hex.EncodeToString(digest.Sum(nil)[:8])
	if allCPU > 0 {
		res.GCCPUFrac = gcCPU / allCPU
	}
	res.HeapLiveMB = median(heapMB)
	if tr != nil {
		res.Layers, res.Detail = tr.metrics()
		if spansPath != "" {
			if err := tr.writeSpans(spansPath, name, seed); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// sample converts the set-up phases to reference seconds, given the
// reference kernel's speed factor around the build.
func (s setupTimes) sample(factor float64) setupSample {
	return setupSample{
		Total:    s.total().Seconds() * factor,
		Platform: s.platform.Seconds() * factor,
		Onboard:  s.onboard.Seconds() * factor,
		Engine:   s.engine.Seconds() * factor,
	}
}

// cpuSeconds reads the runtime's cumulative GC and total CPU estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// cpuTime returns the CPU time (user+system) the process has received.
// The measured processes run with GOMAXPROCS 1, so it advances like the
// wall clock of the simulation thread, except that it leaves out time
// a hypervisor gave the vCPU to other tenants (steal). calib.go turns
// it into reference seconds.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs (0 for none), leaving xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
