package megadc

// Scale-tier benchmarks (DESIGN.md §13): the same three measurements —
// bulk construction, steady incremental tick, full recompute — taken at
// platform sizes selected by MEGADC_SCALE (the server count, which is
// also the app count; see core.ScaleSpecFor), e.g.
// `MEGADC_SCALE=100000 go test -run '^$' -bench Scale -benchtime=1x .`.
// The layered benchmark (layerbench/) is the performance ledger.
//
// The benchmarks are driven with -benchtime=1x: construction at the
// 300K tier takes over a minute, so SteadyTick amortizes a fixed batch
// of ticks inside each iteration and reports ns/tick as a custom
// metric rather than relying on b.N to grow.

import (
	"os"
	"strconv"
	"testing"

	"megadc/internal/core"
)

// steadyTickBatch is how many incremental ticks one SteadyTick
// benchmark iteration runs; ns/tick divides this out.
const steadyTickBatch = 1000

// scaleTier holds the one platform shared by the scale benchmarks in a
// single `go test` process, so SteadyTick and PropagateFull reuse the
// instance the Construct benchmark built last.
var scaleTier struct {
	scale int
	p     *core.Platform
}

func scaleFromEnv(b *testing.B) int {
	s := os.Getenv("MEGADC_SCALE")
	if s == "" {
		b.Skip("set MEGADC_SCALE=<servers> (e.g. 10000) to run scale-tier benchmarks")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		b.Fatalf("MEGADC_SCALE=%q: want a positive server count", s)
	}
	return n
}

func scalePlatformFor(b *testing.B, scale int) *core.Platform {
	if scaleTier.p == nil || scaleTier.scale != scale {
		p, err := core.BuildScalePlatform(core.ScaleSpecFor(scale))
		if err != nil {
			b.Fatal(err)
		}
		scaleTier.scale, scaleTier.p = scale, p
	}
	return scaleTier.p
}

// BenchmarkScaleConstruct measures bulk onboarding of the whole tier:
// topology build, every app/VIP/VM/RIP placed, demand installed, one
// full propagation.
func BenchmarkScaleConstruct(b *testing.B) {
	scale := scaleFromEnv(b)
	spec := core.ScaleSpecFor(scale)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := core.BuildScalePlatform(spec)
		if err != nil {
			b.Fatal(err)
		}
		scaleTier.scale, scaleTier.p = scale, p
	}
	b.ReportMetric(float64(spec.NumVMs()), "vms")
}

// BenchmarkScaleSteadyTick measures the steady-state incremental tick
// (one app's demand shifts, Propagate recomputes it) in batches of
// steadyTickBatch, reporting ns/tick. Allocations per op are per
// batch; the steady path pins at zero.
func BenchmarkScaleSteadyTick(b *testing.B) {
	scale := scaleFromEnv(b)
	p := scalePlatformFor(b, scale)
	for i := 0; i < 8; i++ {
		p.SteadyTick(i) // warm the incremental ledgers and scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < steadyTickBatch; j++ {
			p.SteadyTick(i*steadyTickBatch + j)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steadyTickBatch), "ns/tick")
}

// BenchmarkScalePropagateFull measures the from-scratch recompute of
// every application's placement at the tier's size.
func BenchmarkScalePropagateFull(b *testing.B) {
	scale := scaleFromEnv(b)
	p := scalePlatformFor(b, scale)
	p.PropagateFull() // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PropagateFull()
	}
}
