package placement

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tinyProblem: 2 machines (4 CPU, 4096 MB), 2 apps (1024 MB/inst).
func tinyProblem(demandA, demandB float64) *Problem {
	return &Problem{
		AppDemand: []float64{demandA, demandB},
		AppMem:    []float64{1024, 1024},
		MachCPU:   []float64{4, 4},
		MachMem:   []float64{4096, 4096},
	}
}

func TestValidate(t *testing.T) {
	good := tinyProblem(1, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	bad := &Problem{AppDemand: []float64{1}, AppMem: []float64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched lengths accepted")
	}
	neg := tinyProblem(-1, 0)
	if err := neg.Validate(); err == nil {
		t.Error("negative demand accepted")
	}
	badMach := &Problem{AppDemand: []float64{1}, AppMem: []float64{1}, MachCPU: []float64{-1}, MachMem: []float64{1}}
	if err := badMach.Validate(); err == nil {
		t.Error("negative machine capacity accepted")
	}
	badCur := tinyProblem(1, 1)
	badCur.Current = [][]int{{5}, {}}
	if err := badCur.Validate(); err == nil {
		t.Error("out-of-range current machine accepted")
	}
	badCurLen := tinyProblem(1, 1)
	badCurLen.Current = [][]int{{0}}
	if err := badCurLen.Validate(); err == nil {
		t.Error("short Current accepted")
	}
}

func TestAllPlacersSatisfyEasyProblem(t *testing.T) {
	p := tinyProblem(3, 2) // total 5 < 8 CPU
	sol := (&Controller{}).Place(p)
	if err := CheckFeasible(p, sol); err != nil {
		t.Errorf("controller infeasible: %v", err)
	}
	if got := sol.SatisfiedFraction(p); math.Abs(got-1) > 1e-6 {
		t.Errorf("controller satisfied %v, want 1", got)
	}
}

func TestPlacersRespectMemoryLimit(t *testing.T) {
	// Each machine fits exactly one instance (mem 1024, cap 1024); app
	// demand forces spreading.
	p := &Problem{
		AppDemand: []float64{6},
		AppMem:    []float64{1024},
		MachCPU:   []float64{4, 4},
		MachMem:   []float64{1024, 1024},
	}
	sol := (&Controller{}).Place(p)
	if err := CheckFeasible(p, sol); err != nil {
		t.Errorf("controller infeasible: %v", err)
	}
	if len(sol.Instances[0]) != 2 {
		t.Errorf("controller placed %d instances, want 2", len(sol.Instances[0]))
	}
	if got := sol.SatisfiedFraction(p); math.Abs(got-1) > 1e-6 {
		t.Errorf("controller satisfied %v, want 1", got)
	}
}

func TestOverloadedProblemPartialSatisfaction(t *testing.T) {
	p := tinyProblem(10, 10) // total 20 > 8 CPU
	sol := (&Controller{}).Place(p)
	if err := CheckFeasible(p, sol); err != nil {
		t.Errorf("controller infeasible: %v", err)
	}
	got := sol.Satisfied()
	if math.Abs(got-8) > 1e-6 {
		t.Errorf("controller satisfied %v CPU, want 8 (all capacity)", got)
	}
}

func TestControllerMinimizesChanges(t *testing.T) {
	p := tinyProblem(3, 2)
	cold := (&Controller{}).Place(p)
	if cold.Changes(p) != numInstances(cold) {
		t.Errorf("cold start changes = %d, want %d", cold.Changes(p), numInstances(cold))
	}
	// Re-solve with the solution as Current: no changes needed.
	p2 := withCurrent(p, cold)
	warm := (&Controller{}).Place(p2)
	if err := CheckFeasible(p2, warm); err != nil {
		t.Fatalf("warm infeasible: %v", err)
	}
	if got := warm.Changes(p2); got != 0 {
		t.Errorf("warm re-place changes = %d, want 0", got)
	}
	if got := warm.SatisfiedFraction(p2); math.Abs(got-1) > 1e-6 {
		t.Errorf("warm satisfied = %v", got)
	}
}

func TestControllerIncrementalDemandGrowth(t *testing.T) {
	// After demand grows, the controller should add instances but keep
	// the existing ones.
	p := tinyProblem(3, 2)
	sol := (&Controller{}).Place(p)
	grown := withCurrent(p, sol)
	grown.AppDemand = []float64{6, 2} // app 0 now needs both machines
	sol2 := (&Controller{}).Place(grown)
	if err := CheckFeasible(grown, sol2); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if got := sol2.SatisfiedFraction(grown); math.Abs(got-1) > 1e-6 {
		t.Errorf("satisfied = %v, want 1", got)
	}
	// Changes should be only additions: every current instance kept.
	adds := numInstances(sol2) - numInstances(sol)
	if got := sol2.Changes(grown); got != adds {
		t.Errorf("changes = %d, want %d (additions only)", got, adds)
	}
}

func TestControllerEviction(t *testing.T) {
	// Machine 0: hosts an idle instance of app B (B's demand is zero).
	// App A needs machine 0's memory; the controller must evict B.
	p := &Problem{
		AppDemand: []float64{4, 0},
		AppMem:    []float64{1024, 1024},
		MachCPU:   []float64{4},
		MachMem:   []float64{1024},
		Current:   [][]int{nil, {0}},
	}
	sol := (&Controller{}).Place(p)
	if err := CheckFeasible(p, sol); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if got := sol.SatisfiedFraction(p); math.Abs(got-1) > 1e-6 {
		t.Errorf("satisfied = %v, want 1 (eviction should free memory)", got)
	}
	if len(sol.Instances[1]) != 0 {
		t.Errorf("idle instance of app B not evicted: %v", sol.Instances[1])
	}
}

func TestControllerDropsOversizedCurrent(t *testing.T) {
	// Current claims an instance whose footprint no longer fits.
	p := &Problem{
		AppDemand: []float64{1},
		AppMem:    []float64{2048},
		MachCPU:   []float64{4},
		MachMem:   []float64{1024},
		Current:   [][]int{{0}},
	}
	sol := (&Controller{}).Place(p)
	if err := CheckFeasible(p, sol); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if len(sol.Instances[0]) != 0 {
		t.Error("oversized current instance kept")
	}
}

func TestControllerIterationCap(t *testing.T) {
	c := &Controller{MaxIters: 1}
	p := tinyProblem(3, 2)
	sol := c.Place(p)
	if err := CheckFeasible(p, sol); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if c.LastIterations > 2 {
		t.Errorf("LastIterations = %d with MaxIters 1", c.LastIterations)
	}
}

func TestGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Generate(100, 40, 0.7, rng)
	if err := p.Validate(); err != nil {
		t.Fatalf("generated problem invalid: %v", err)
	}
	if p.NumApps() != 100 || p.NumMachines() != 40 {
		t.Errorf("sizes = %d,%d", p.NumApps(), p.NumMachines())
	}
	total := p.TotalDemand()
	capacity := machineCPU * 40
	if total < 0.4*capacity || total > 1.0*capacity {
		t.Errorf("total demand %v vs capacity %v; load factor should be ≈0.7", total, capacity)
	}
	defer func() {
		if recover() == nil {
			t.Error("Generate(0,1) did not panic")
		}
	}()
	Generate(0, 1, 0.7, rng)
}

func TestGeneratedProblemsSolvable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Generate(200, 80, 0.7, rng)
	sol := (&Controller{}).Place(p)
	if err := CheckFeasible(p, sol); err != nil {
		t.Errorf("controller infeasible: %v", err)
	}
	if got := sol.SatisfiedFraction(p); got < 0.95 {
		t.Errorf("controller satisfied only %v of a 0.7-load problem", got)
	}
}

func TestControllerQualityAtHighLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := Generate(300, 60, 0.95, rng)
	sol := (&Controller{}).Place(p)
	if err := CheckFeasible(p, sol); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if got := sol.SatisfiedFraction(p); got < 0.9 {
		t.Errorf("controller satisfied %v at 0.95 load", got)
	}
}

// Property: re-solving a problem seeded with the controller's own
// solution changes nothing — placement-change minimization is a fixed
// point at the optimum.
func TestPropertyWarmResolveIsFixedPoint(t *testing.T) {
	f := func(seed int64, nApps8, nMach8 uint8) bool {
		nApps := int(nApps8%40) + 1
		nMach := int(nMach8%15) + 1
		rng := rand.New(rand.NewSource(seed))
		p := Generate(nApps, nMach, 0.7, rng)
		first := (&Controller{}).Place(p)
		warm := withCurrent(p, first)
		second := (&Controller{}).Place(warm)
		if err := CheckFeasible(warm, second); err != nil {
			t.Logf("warm infeasible: %v", err)
			return false
		}
		if got := second.Changes(warm); got != 0 {
			t.Logf("warm re-solve made %d changes", got)
			return false
		}
		return second.Satisfied() >= first.Satisfied()-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Error(err)
	}
}

// Property: the controller returns feasible placements on random
// problems.
func TestPropertyPlacersFeasible(t *testing.T) {
	f := func(seed int64, nApps8, nMach8 uint8) bool {
		nApps := int(nApps8%60) + 1
		nMach := int(nMach8%20) + 1
		rng := rand.New(rand.NewSource(seed))
		p := Generate(nApps, nMach, 0.3+rng.Float64(), rng)
		if err := CheckFeasible(p, (&Controller{}).Place(p)); err != nil {
			t.Logf("controller: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}
