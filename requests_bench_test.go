package megadc

// Request-engine scale benchmarks (DESIGN.md §14): open-loop request
// traffic measured at LB-fabric sizes selected by MEGADC_REQSCALE (the
// switch count, one VIP-exposed application per switch). The layered
// benchmark (layerbench/) is the performance ledger.
//
// Two measurements per tier, driven with -benchtime=1x and reported as
// custom metrics so the baseline records stay stable at one iteration:
//
//   - BenchmarkRequestsDrive: a fixed simulated window of arrivals →
//     DNS resolve → queue → service → latency record, then a full
//     drain; ns/req and req/s of wall-clock engine throughput.
//   - BenchmarkRequestsRefresh: the engine's periodic tick hook — one
//     capacity-refresh pass re-deriving every attached queue's service
//     rate from backend health — amortized over a batch; ns/switch.
//
// Apps get uniform (not Zipf) popularity here so arrivals cover the
// whole fabric and every switch queue attaches; the skewed-popularity
// behavior is E17's subject, not this throughput measurement's.

import (
	"os"
	"strconv"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
	"megadc/internal/requests"
	"megadc/internal/workload"
)

const (
	// reqBenchRate × reqBenchWindow ≈ 100K requests per drive iteration.
	reqBenchRate   = 20_000.0 // total arrival rate, req/s
	reqBenchWindow = 5.0      // simulated seconds of arrivals per iteration

	// refreshBatch amortizes the (fast) refresh pass inside one
	// -benchtime=1x iteration; ns/switch divides it back out.
	refreshBatch = 100
)

// reqTier caches the one platform shared by the request benchmarks in a
// single `go test` process, mirroring scaleTier above.
var reqTier struct {
	switches int
	p        *core.Platform
	apps     []cluster.AppID
}

func reqScaleFromEnv(b *testing.B) int {
	s := os.Getenv("MEGADC_REQSCALE")
	if s == "" {
		b.Skip("set MEGADC_REQSCALE=<switches> (e.g. 1000) to run request-engine benchmarks")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		b.Fatalf("MEGADC_REQSCALE=%q: want a positive switch count", s)
	}
	return n
}

// reqPlatformFor builds (once per process) a platform whose LB fabric
// has exactly `switches` switches, each homing one application's single
// VIP with two one-quarter-core instances behind it — so the derived
// per-switch service rate is a uniform 0.5 CPU / CPUPerRequest.
func reqPlatformFor(b *testing.B, switches int) (*core.Platform, []cluster.AppID) {
	if reqTier.p != nil && reqTier.switches == switches {
		return reqTier.p, reqTier.apps
	}
	spec := core.ScaleSpec{
		Servers:         max(switches/2, 32),
		Apps:            switches,
		InstancesPerApp: 2,
		VIPsPerApp:      1,
		Seed:            1,
		Demand:          core.Demand{CPU: 1, Mbps: 2},
		Slice:           cluster.Resources{CPU: 0.25, MemMB: 64, NetMbps: 5},
	}
	topo := spec.Topology()
	topo.Switches = switches
	topo.SwitchPods = (switches + 31) / 32
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = spec.VIPsPerApp
	cfg.PropagateFullEvery = -1
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.OnboardAppsBulk(spec); err != nil {
		b.Fatal(err)
	}
	apps := make([]cluster.AppID, spec.Apps)
	for i := range apps {
		apps[i] = cluster.AppID(i)
	}
	reqTier.switches, reqTier.p, reqTier.apps = switches, p, apps
	return p, apps
}

// reqEngineFor builds and starts a fresh engine (engines are one-shot)
// generating arrivals until stopAt into its own registry.
func reqEngineFor(b *testing.B, p *core.Platform, apps []cluster.AppID, stopAt float64) *requests.Engine {
	cfg := requests.DefaultConfig()
	cfg.Profile = workload.Constant(reqBenchRate)
	cfg.Population = 4 // small per-app client pools: 10K apps stay light
	cfg.Registry = metrics.NewRegistry()
	cfg.StopAt = stopAt
	eng, err := requests.New(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range apps {
		if err := eng.AddApp(a, 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkRequestsDrive measures end-to-end request throughput: one
// iteration generates reqBenchWindow seconds of arrivals at
// reqBenchRate and runs the simulation until every queue drains.
// Engine construction (client pools, histograms) is excluded from the
// timer; ns/req and req/s are wall-clock per served request.
func BenchmarkRequestsDrive(b *testing.B) {
	switches := reqScaleFromEnv(b)
	p, apps := reqPlatformFor(b, switches)
	var served int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stopAt := p.Eng.Now() + reqBenchWindow
		eng := reqEngineFor(b, p, apps, stopAt)
		b.StartTimer()
		p.Eng.RunUntil(stopAt + 60) // arrivals, service, full drain
		b.StopTimer()
		st := eng.Stats()
		if st.Served == 0 {
			b.Fatal("no requests served")
		}
		if n := eng.Pending(); n != 0 {
			b.Fatalf("%d requests still pending after drain", n)
		}
		served += st.Served
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(served), "ns/req")
	b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkRequestsRefresh measures the engine's tick hook at fabric
// scale: one RefreshCapacity pass re-derives every attached queue's
// service rate from live backend health (core.BackendScan), amortized
// over refreshBatch passes and reported as ns/switch.
func BenchmarkRequestsRefresh(b *testing.B) {
	switches := reqScaleFromEnv(b)
	p, apps := reqPlatformFor(b, switches)
	stopAt := p.Eng.Now() + reqBenchWindow
	eng := reqEngineFor(b, p, apps, stopAt)
	p.Eng.RunUntil(stopAt + 60) // drive traffic so queues attach fabric-wide
	nq := eng.AttachedQueues()
	if nq == 0 {
		b.Fatal("no switch queues attached")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < refreshBatch; j++ {
			eng.RefreshCapacity()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refreshBatch*nq), "ns/switch")
	b.ReportMetric(float64(nq), "queues")
}
