package baseline

import (
	"math"
	"testing"
)

func fastTECfg() TEConfig {
	cfg := DefaultTEConfig()
	cfg.WarmupSec = 300
	cfg.HorizonSec = 1500
	return cfg
}

func TestSelectiveExposureRelievesLink(t *testing.T) {
	res := RunSelectiveExposureTE(fastTECfg())
	if res.ReliefTime < 0 {
		t.Fatal("selective exposure never relieved the link")
	}
	if res.RouteUpdates != 0 {
		t.Errorf("selective exposure issued %d route updates, want 0", res.RouteUpdates)
	}
	if res.FinalHotUtil > 0.5 {
		t.Errorf("final hot util = %v; load did not move", res.FinalHotUtil)
	}
	if res.FinalColdUtil < 0.5 {
		t.Errorf("final cold util = %v; load did not arrive", res.FinalColdUtil)
	}
}

func TestNaiveReadvertRelievesLinkSlower(t *testing.T) {
	cfg := fastTECfg()
	sel := RunSelectiveExposureTE(cfg)
	naive := RunNaiveReadvertTE(cfg)
	if naive.ReliefTime < 0 {
		t.Fatal("naive re-advertisement never relieved the link")
	}
	if naive.RouteUpdates != 3 {
		t.Errorf("naive route updates = %d, want 3 (pad, advertise, withdraw)", naive.RouteUpdates)
	}
	// The paper's claim: selective exposure relieves sooner (new
	// arrivals shift immediately; naive waits out BGP convergence).
	if naive.ReliefTime <= sel.ReliefTime {
		t.Errorf("naive relief %vs ≤ selective relief %vs; paper expects naive slower",
			naive.ReliefTime, sel.ReliefTime)
	}
}

func TestTEWarmupOverloads(t *testing.T) {
	cfg := fastTECfg()
	res := RunSelectiveExposureTE(cfg)
	// Just before the intervention the hot link must be overloaded,
	// otherwise the experiment tests nothing.
	var utilAtWarmup float64
	for _, pt := range res.HotTimeline.Points() {
		if pt.T <= cfg.WarmupSec {
			utilAtWarmup = pt.V
		}
	}
	if utilAtWarmup < TETargetUtil {
		t.Errorf("hot util at warmup = %v; below target %v", utilAtWarmup, TETargetUtil)
	}
}

func TestTEViolatorsSlowTheDrain(t *testing.T) {
	clean := fastTECfg()
	clean.ViolatorFraction = 0
	dirty := fastTECfg()
	dirty.ViolatorFraction = 0.4
	dirty.ViolationHoldSec = 3000
	r1 := RunSelectiveExposureTE(clean)
	r2 := RunSelectiveExposureTE(dirty)
	if r1.ReliefTime < 0 {
		t.Fatal("clean run never relieved")
	}
	// With 40% violators holding stale entries for the whole horizon,
	// 40% of arrivals keep hitting the hot link: relief is slower or
	// never.
	if r2.ReliefTime >= 0 && r2.ReliefTime <= r1.ReliefTime {
		t.Errorf("violators did not slow relief: %v vs %v", r2.ReliefTime, r1.ReliefTime)
	}
}

func TestMultiplexingSharedBeatsPartitioned(t *testing.T) {
	cfg := DefaultMuxConfig()
	cfg.Trials = 500
	results, err := RunMultiplexing(cfg, []int{1, 4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	// Overload probability must be monotone non-decreasing in partition
	// count (statistical multiplexing argument).
	for i := 1; i < len(results); i++ {
		if results[i].OverloadProb+1e-9 < results[i-1].OverloadProb {
			t.Errorf("overload prob decreased with partitioning: %v", results)
		}
	}
	// Shared DC at 60% mean load with this mix should rarely overload;
	// 64 partitions (≈5 servers each) should overload often.
	if results[0].OverloadProb > 0.2 {
		t.Errorf("shared overload prob = %v, expected small", results[0].OverloadProb)
	}
	if results[3].OverloadProb < 0.5 {
		t.Errorf("64-partition overload prob = %v, expected large", results[3].OverloadProb)
	}
	// Mean utilization is partition-independent (same demand).
	for _, r := range results {
		if math.Abs(r.MeanUtilization-results[0].MeanUtilization) > 0.05 {
			t.Errorf("mean utilization drifted: %v", results)
		}
	}
	// Lost demand grows with partitioning.
	if results[3].LostDemandFrac <= results[0].LostDemandFrac {
		t.Errorf("lost demand did not grow with partitioning: %v", results)
	}
}

func TestMultiplexingValidation(t *testing.T) {
	cfg := DefaultMuxConfig()
	if _, err := RunMultiplexing(cfg, []int{0}); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := RunMultiplexing(cfg, []int{muxServers + 1}); err == nil {
		t.Error("more partitions than servers accepted")
	}
	bad := cfg
	bad.Apps = 0
	if _, err := RunMultiplexing(bad, []int{1}); err == nil {
		t.Error("zero apps accepted")
	}
}

func TestMultiplexingDeterministic(t *testing.T) {
	cfg := DefaultMuxConfig()
	cfg.Trials = 200
	a, _ := RunMultiplexing(cfg, []int{1, 8})
	b, _ := RunMultiplexing(cfg, []int{1, 8})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %+v vs %+v", a[i], b[i])
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(xs, 1); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}
