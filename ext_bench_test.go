package megadc

// Benchmarks for the extension subsystems (beyond the paper's explicit
// scope but within its stated directions): energy consolidation (§VI),
// multi-DC federation (§III-A's "yet higher level"), discrete session
// driving, and failure recovery.

import (
	"math/rand"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/energy"
	"megadc/internal/multidc"
	"megadc/internal/placement"
	"megadc/internal/sessions"
	"megadc/internal/sim"
	"megadc/internal/workload"
)

// BenchmarkX1EnergyConsolidation runs one simulated day of diurnal load
// with the consolidation knob and reports the energy saving versus the
// always-on baseline.
func BenchmarkX1EnergyConsolidation(b *testing.B) {
	run := func(consolidate bool) float64 {
		topo := core.SmallTopology()
		topo.Pods = 2
		p, err := core.NewPlatform(topo, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		app, err := p.OnboardApp("a", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}, 4, core.Demand{})
		if err != nil {
			b.Fatal(err)
		}
		p.DriveDemand(app.ID, workload.Diurnal{Base: 1, Amplitude: 0.8, Period: 43200},
			core.Demand{CPU: 30, Mbps: 300}, 300, 86400)
		p.Start()
		meter := energy.NewMeter(p)
		if consolidate {
			energy.NewConsolidator(p).Attach(meter, 120, 60)
		} else {
			p.Eng.Every(0, 60, func() bool { meter.Sample(); return true })
		}
		p.Eng.RunUntil(86400)
		return meter.EnergyWh(86400)
	}
	for i := 0; i < b.N; i++ {
		base := run(false)
		cons := run(true)
		b.ReportMetric((1-cons/base)*100, "%-energy-saved")
	}
}

// BenchmarkX2MultiDCSteering measures federation convergence after a
// surge that exceeds the small DC's share.
func BenchmarkX2MultiDCSteering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fed := multidc.New(sim.New(1))
		cfg := core.DefaultConfig()
		if _, err := fed.AddDC("big", core.SmallTopology(), cfg); err != nil {
			b.Fatal(err)
		}
		small := core.SmallTopology()
		small.Pods = 2
		small.ServersPerPod = 4
		if _, err := fed.AddDC("small", small, cfg); err != nil {
			b.Fatal(err)
		}
		app, err := fed.OnboardApp("a", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
			4, core.Demand{CPU: 40, Mbps: 300})
		if err != nil {
			b.Fatal(err)
		}
		fed.Start(60)
		fed.Eng.RunUntil(300)
		fed.SetDemand(app, core.Demand{CPU: 140, Mbps: 600})
		fed.Eng.RunUntil(3600)
		b.ReportMetric(fed.TotalSatisfaction(), "satisfaction")
		b.ReportMetric(float64(fed.Shifts), "shifts")
	}
}

// BenchmarkX3SessionThroughput measures the session pipeline cost:
// resolve → connect → demand overlay → close, per session.
func BenchmarkX3SessionThroughput(b *testing.B) {
	p, err := core.NewPlatform(core.SmallTopology(), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	app, err := p.OnboardApp("a", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}, 4, core.Demand{})
	if err != nil {
		b.Fatal(err)
	}
	drv, err := sessions.NewDriver(p, sessions.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := drv.AddApp(app.ID, workload.Constant(100)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// Each simulated second processes ~100 arrivals + departures.
	p.Eng.RunFor(float64(b.N) / 100)
	b.StopTimer()
	st := drv.Stats(app.ID)
	if st.Started == 0 {
		b.Fatal("no sessions ran")
	}
}

// BenchmarkX5AffinityPlacement measures the co-placement extension: the
// colocation fraction gained over the base controller and the extra
// solve cost.
func BenchmarkX5AffinityPlacement(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prob := placement.Generate(200, 80, 0.5, rng)
	var pairs []placement.AffinityPair
	for a := 0; a+1 < 200; a += 2 {
		pairs = append(pairs, placement.AffinityPair{A: a, B: a + 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (&placement.Controller{}).Place(prob)
		aff := (&placement.AffinityController{Pairs: pairs}).Place(prob)
		b.ReportMetric(placement.Colocation(aff, pairs)-placement.Colocation(base, pairs), "colocation-gain")
	}
}

// BenchmarkX4FailureRecovery measures the cost of a server failure plus
// the explicit capacity-recovery pass.
func BenchmarkX4FailureRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := core.NewPlatform(core.SmallTopology(), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		app, err := p.OnboardApp("a", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
			4, core.Demand{CPU: 4, Mbps: 100})
		if err != nil {
			b.Fatal(err)
		}
		victim := p.Cluster.VM(app.VMIDs()[0]).Server
		b.StartTimer()
		if _, err := p.FailServer(victim); err != nil {
			b.Fatal(err)
		}
		p.RecoverLostCapacity(0.99, 8)
		b.StopTimer()
		if got := p.AppSatisfaction(app.ID); got < 0.99 {
			b.Fatalf("recovery failed: %v", got)
		}
		b.StartTimer()
	}
}
