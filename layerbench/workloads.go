package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"megadc/internal/causal"
	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/faults"
	"megadc/internal/metrics"
	"megadc/internal/requests"
	"megadc/internal/spans"
	"megadc/internal/trace"
	"megadc/internal/workload"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"fleet-10k", "requests-10k", "churn-observed"}

// params sizes one workload. The full sizes are the benchmark's; the
// tiny sizes drive the self-test.
type params struct {
	servers  int     // fleet-10k: fleet size (apps = servers)
	switches int     // requests-10k: LB switch count (one app each)
	horizon  float64 // simulated seconds of the timed phase
	// trickle is the background request rate (req/sim s) of the
	// workloads whose subject is not the request path. It exists only
	// so that req_per_s is defined, and nonzero, on every workload.
	trickle float64
	// sims is how many independent simulations, with seeds derived from
	// the workload seed, one repetition runs. churn-observed's cost per
	// simulated second depends on which faults its seed draws; summing
	// several seeds steadies it.
	sims int
	// setupProcs is how many extra set-up-only processes each round
	// runs to time set-up. A built platform keeps its Propagate worker
	// goroutines parked for the life of the process, so a second large
	// build in one process would stay resident and inflate peak RSS.
	setupProcs int
}

func paramsFor(name string, tiny bool) (params, error) {
	switch name {
	case "fleet-10k":
		if tiny {
			return params{servers: 1_000, horizon: 60, trickle: 5, sims: 1, setupProcs: 1}, nil
		}
		return params{servers: 10_000, horizon: 120, trickle: 50, sims: 1, setupProcs: 3}, nil
	case "requests-10k":
		if tiny {
			return params{switches: 1_000, horizon: 1, sims: 1, setupProcs: 1}, nil
		}
		return params{switches: 10_000, horizon: 5, sims: 1, setupProcs: 3}, nil
	case "churn-observed":
		if tiny {
			return params{horizon: 2_000, trickle: 0.1, sims: 2}, nil
		}
		return params{horizon: 12_500, trickle: 0.1, sims: 16}, nil
	}
	return params{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// setupTimes splits set-up into its three phases.
type setupTimes struct {
	platform, onboard, engine time.Duration
}

func (s setupTimes) total() time.Duration { return s.platform + s.onboard + s.engine }

// instance is one built workload: a platform with its drivers attached,
// ready for the timed phase to advance the engine from start to end.
type instance struct {
	name string
	p    *core.Platform
	reg  *metrics.Registry
	req  *requests.Engine
	inj  *faults.Injector
	asm  *causal.Assembler // churn-observed only

	end     float64 // the timed phase runs from time 0 to end
	simSpan float64 // simulated seconds the throughputs cover (the rest is drain)
	drains  bool    // request arrivals stop early enough to drain by end

	setup setupTimes

	// publishHook, when set, is told how long each registry publish took
	// (the traced pass sets it; the publish itself runs either way).
	publishHook func(time.Duration)
}

// build constructs a workload from its seed. observers=false turns the
// trace/spans/causal observers of churn-observed off (the traced pass
// uses it to measure their overhead); it is ignored elsewhere.
func build(name string, seed int64, tiny, observers bool) (*instance, error) {
	pr, err := paramsFor(name, tiny)
	if err != nil {
		return nil, err
	}
	switch name {
	case "fleet-10k":
		return buildFleet(pr, seed)
	case "requests-10k":
		return buildRequests(pr, seed)
	default:
		return buildChurn(pr, seed, observers)
	}
}

// buildFleet: the paper's two-level control hierarchy at 10K servers.
func buildFleet(pr params, seed int64) (*instance, error) {
	in := &instance{name: "fleet-10k", reg: metrics.NewRegistry()}
	t0 := cpuTime()
	spec := core.ScaleSpecFor(pr.servers)
	spec.Seed = seed
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = spec.VIPsPerApp
	p, err := core.NewPlatform(spec.Topology(), cfg)
	if err != nil {
		return nil, err
	}
	t1 := cpuTime()
	if err := p.OnboardAppsBulk(spec); err != nil {
		return nil, err
	}
	t2 := cpuTime()
	in.p = p
	in.end, in.simSpan = pr.horizon, pr.horizon

	// Flash crowds (×15) on 1% of the apps, each starting within the
	// first simulated minute, so knobs actuate inside the timed phase.
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(spec.Apps)[:max(spec.Apps/100, 1)] {
		app := cluster.AppID(i)
		fc := workload.FlashCrowd{Base: 1, Peak: 15, Start: 60 * rng.Float64(), Ramp: 20, Hold: pr.horizon}
		p.DriveDemand(app, fc, p.AppDemand(app), 10, pr.horizon)
	}
	// Fault churn scaled to the fleet: about one server fault per 10 s.
	fc := faults.DefaultConfig()
	fc.Server = faults.Class{MTBF: 10 * float64(pr.servers), MTTR: 180, DetectDelay: 15}
	fc.Switch = faults.Class{MTBF: 40 * float64(pr.servers), MTTR: 360, DetectDelay: 15}
	fc.Link = faults.Class{MTBF: 30 * float64(pr.servers), MTTR: 270, DetectDelay: 7.5}
	in.inj = faults.New(p, fc)
	in.inj.Start(pr.horizon)
	if err := in.startTrickle(pr.trickle); err != nil {
		return nil, err
	}
	p.Start()
	in.setup = setupTimes{platform: t1 - t0, onboard: t2 - t1, engine: cpuTime() - t2}
	return in, nil
}

// buildRequests: the request path over 10K single-VIP LB switches,
// Poisson arrivals at ~20% of the derived capacity, control loops and
// faults off, drained to zero pending.
func buildRequests(pr params, seed int64) (*instance, error) {
	in := &instance{name: "requests-10k", reg: metrics.NewRegistry()}
	t0 := cpuTime()
	spec := core.ScaleSpec{
		Servers:         max(pr.switches/2, 32),
		Apps:            pr.switches,
		InstancesPerApp: 2,
		VIPsPerApp:      1,
		Seed:            seed,
		Demand:          core.Demand{CPU: 1, Mbps: 2},
		Slice:           cluster.Resources{CPU: 0.25, MemMB: 64, NetMbps: 5},
	}
	topo := spec.Topology()
	topo.Switches = pr.switches
	topo.SwitchPods = (pr.switches + 31) / 32
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = spec.VIPsPerApp
	cfg.PropagateFullEvery = -1
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		return nil, err
	}
	t1 := cpuTime()
	if err := p.OnboardAppsBulk(spec); err != nil {
		return nil, err
	}
	t2 := cpuTime()
	in.p = p

	rcfg := requests.DefaultConfig()
	rcfg.CPUPerRequest = 0.005
	// Derived capacity: every switch homes one app whose two instances
	// give it InstancesPerApp × Slice.CPU cores.
	capacity := float64(pr.switches) * float64(spec.InstancesPerApp) * spec.Slice.CPU / rcfg.CPUPerRequest
	rcfg.Profile = workload.Constant(0.2 * capacity)
	rcfg.Population = 4 // small per-app client pools keep 10K apps light
	rcfg.Registry = in.reg
	rcfg.StopAt = pr.horizon
	eng, err := requests.New(p, rcfg)
	if err != nil {
		return nil, err
	}
	for a := 0; a < spec.Apps; a++ {
		if err := eng.AddApp(cluster.AppID(a), 1); err != nil {
			return nil, err
		}
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	in.req = eng
	in.end, in.simSpan = pr.horizon+60, pr.horizon
	in.drains = true
	in.setup = setupTimes{platform: t1 - t0, onboard: t2 - t1, engine: cpuTime() - t2}
	return in, nil
}

// buildChurn: megadcsim's default small platform under long-horizon
// fault churn, a lossy delayed control bus, the serialized reconfig
// pump, and every observer on.
func buildChurn(pr params, seed int64, observers bool) (*instance, error) {
	in := &instance{name: "churn-observed", reg: metrics.NewRegistry()}
	t0 := cpuTime()
	topo := core.SmallTopology()
	topo.Pods, topo.ServersPerPod, topo.Switches = 4, 8, 4
	topo.ISPs, topo.LinksPerISP = 2, 2
	topo.Seed = seed
	cfg := core.DefaultConfig()
	cfg.SerializeReconfig = true
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 2, LossProb: 0.05}
	cfg.Ctrl.SnapshotEvery = 30
	cfg.Ctrl.Registry = in.reg
	// The default retry window (≈1270 s) outlasts one partition but not
	// the repeated partitions of this churn: a call delivered once whose
	// acks keep getting lost would dead-letter, the bus's documented
	// at-least-once caveat. The benchmark's operations must not fail, so
	// the window is lengthened past the simulation; losses, retries and
	// timer cancels still do their work.
	for retryWindow(cfg.Ctrl) <= pr.horizon {
		cfg.Ctrl.MaxRetries++
	}
	if observers {
		rec := trace.NewRecorder(trace.DefaultRingSize)
		rec.TS = &trace.Timeseries{}
		cfg.Trace = rec
		cfg.Spans = spans.New(in.reg)
		in.asm = causal.New(in.reg)
		cfg.Causal = in.asm
	}
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		return nil, err
	}
	t1 := cpuTime()
	in.p = p

	// Onboard 16 Zipf-popular apps at ~55% aggregate load, exactly as
	// megadcsim's default scenario does.
	const apps = 16
	weights := workload.ZipfWeights(apps, 0.9)
	totalCPU := 0.55 * topo.ServerCapacity.CPU * float64(topo.Pods*topo.ServersPerPod)
	totalMbps := 0.55 * math.Min(topo.LinkMbps*float64(topo.ISPs*topo.LinksPerISP),
		topo.SwitchLimits.ThroughputMbps*float64(topo.Switches))
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	for i := 0; i < apps; i++ {
		d := core.Demand{CPU: totalCPU * weights[i], Mbps: totalMbps * weights[i]}
		if _, err := p.OnboardApp(fmt.Sprintf("app-%02d", i), slice, 3, d); err != nil {
			return nil, err
		}
	}
	t2 := cpuTime()

	// megadcsim -churn -churn-flap -ctrl-partition-mtbf 1200 churn.
	const mtbf, mttr, detect = 2000.0, 180.0, 15.0
	fc := faults.DefaultConfig()
	fc.Server = faults.Class{MTBF: mtbf, MTTR: mttr, DetectDelay: detect}
	fc.Switch = faults.Class{MTBF: 4 * mtbf, MTTR: 2 * mttr, DetectDelay: detect}
	fc.Link = faults.Class{MTBF: 3 * mtbf, MTTR: 1.5 * mttr, DetectDelay: detect / 2}
	fc.Flap = faults.FlapConfig{MTBF: 3 * mtbf, Cycles: 3, Down: 2, Up: 8}
	fc.Partition = faults.Class{MTBF: 1200, MTTR: 120}
	in.inj = faults.New(p, fc)
	in.inj.Start(pr.horizon)
	if err := in.startTrickle(pr.trickle); err != nil {
		return nil, err
	}
	p.Start()
	// Publish the registry every 30 simulated seconds, as megadcsim does.
	const publishEvery = 30
	asm := in.asm
	p.Eng.Every(publishEvery, publishEvery, func() bool {
		t := time.Now()
		p.PublishMetrics(in.reg)
		asm.PublishMetrics(p.Eng.Now())
		if in.publishHook != nil {
			in.publishHook(time.Since(t))
		}
		return true
	})
	in.end, in.simSpan = pr.horizon, pr.horizon
	in.setup = setupTimes{platform: t1 - t0, onboard: t2 - t1, engine: cpuTime() - t2}
	return in, nil
}

// retryWindow is the shortest time, in simulated seconds, from a call's
// first attempt to its dead letter.
func retryWindow(c ctrlplane.Config) float64 {
	var w float64
	for n := 0; n <= c.MaxRetries; n++ {
		w += c.RetryTimeout * math.Pow(c.BackoffFactor, float64(n))
	}
	return w
}

// trickleRefresh is how often, in simulated seconds, the trickle's
// queues re-derive their capacity: the global control interval, so the
// refresh scan of the whole fleet stays a small, fixed share of the
// work instead of running every simulated second.
const trickleRefresh = 30

// startTrickle attaches a light uniform request stream that runs
// through the whole timed phase.
func (in *instance) startTrickle(rate float64) error {
	rcfg := requests.DefaultConfig()
	rcfg.Profile = workload.Constant(rate)
	rcfg.Population = 4
	rcfg.RefreshEvery = trickleRefresh
	rcfg.Registry = in.reg
	eng, err := requests.New(in.p, rcfg)
	if err != nil {
		return err
	}
	for _, a := range in.p.Cluster.AppIDs() {
		if err := eng.AddApp(a, 1); err != nil {
			return err
		}
	}
	if err := eng.Start(); err != nil {
		return err
	}
	in.req = eng
	return nil
}

// advance runs the timed phase one Step at a time: the measured span
// up to and including simSpan, then the drain tail up to the end. A
// sentinel event one ulp past each boundary stops the loop there, so
// both passes execute the identical event sequence (sentinels
// included). step runs one event: the bare Step, or the traced pass's
// timed and attributed Step, followed by the reference clock's tick.
// mark is called at every boundary.
func (in *instance) advance(step func(), mark func()) {
	eng := in.p.Eng
	bounds := []float64{in.simSpan}
	if in.end > in.simSpan {
		bounds = append(bounds, in.end)
	}
	for _, b := range bounds {
		done := false
		eng.At(math.Nextafter(b, math.Inf(1)), func() { done = true })
		for !done {
			step()
		}
		mark()
	}
}

// ops returns the run's operation and failure counts. On requests-10k
// an operation is a simulated request, failed when dropped or
// unexposed. On churn-observed it is a control-bus call, failed when
// dead-lettered. fleet-10k runs DefaultConfig's synchronous control
// plane, where no call crosses a bus, so its operations are manager
// steps, which cannot fail.
func (in *instance) ops() (attempted, failed int64) {
	switch in.name {
	case "requests-10k":
		st := in.req.Stats()
		return st.Generated, st.Dropped + st.NoExposure
	case "fleet-10k":
		return in.podSteps() + in.p.Global.Steps, 0
	}
	b := in.p.Ctrl()
	return b.Sent, b.DeadLetters
}

// podSteps sums PodManager.Steps over every pod.
func (in *instance) podSteps() int64 {
	var n int64
	for _, pm := range in.p.PodManagers() {
		n += pm.Steps
	}
	return n
}
