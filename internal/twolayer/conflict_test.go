package twolayer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConflictSymmetricNoGap(t *testing.T) {
	sc := ConflictScenario{TrafficMbps: 1000, LinkCap: [2]float64{1000, 1000}, PodCap: [2]float64{1000, 1000}}
	one, err := SolveOneLayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	two, err := SolveTwoLayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if gap := one.Objective - two.Objective; gap > 1e-6 {
		t.Errorf("symmetric scenario has gap %v, want 0", gap)
	}
}

func TestConflictAsymmetricPodsGap(t *testing.T) {
	// Links symmetric; pod 0 has a quarter of pod 1's capacity. Link
	// balance wants a 50/50 split; pod balance wants 20/80. One layer
	// must compromise; two layers satisfy both.
	sc := ConflictScenario{TrafficMbps: 1000, LinkCap: [2]float64{600, 600}, PodCap: [2]float64{250, 1000}}
	one, err := SolveOneLayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	two, err := SolveTwoLayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if one.Objective <= two.Objective {
		t.Errorf("one-layer %v ≤ two-layer %v; expected a conflict gap", one.Objective, two.Objective)
	}
	// Two-layer achieves the independent optima: links 500/600, pods
	// 200/250 = 0.8.
	if math.Abs(two.MaxLinkUtil-500.0/600) > 1e-6 {
		t.Errorf("two-layer link util = %v", two.MaxLinkUtil)
	}
	if math.Abs(two.MaxPodUtil-0.8) > 1e-6 {
		t.Errorf("two-layer pod util = %v", two.MaxPodUtil)
	}
	// One-layer: optimum is where link and pod objectives cross; the
	// split is strictly between the two ideal splits.
	if one.Split <= 0.2-1e-6 || one.Split >= 0.5+1e-6 {
		t.Errorf("one-layer split = %v, want within (0.2, 0.5)", one.Split)
	}
}

func TestConflictValidation(t *testing.T) {
	bad := ConflictScenario{TrafficMbps: 0, LinkCap: [2]float64{1, 1}, PodCap: [2]float64{1, 1}}
	if _, err := SolveOneLayer(bad); err == nil {
		t.Error("zero traffic accepted")
	}
	bad = ConflictScenario{TrafficMbps: 1, LinkCap: [2]float64{0, 1}, PodCap: [2]float64{1, 1}}
	if _, err := SolveTwoLayer(bad); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := SolveOneLayer(bad); err == nil {
		t.Error("one-layer solver accepted zero capacity")
	}
}

// Property: the two-layer objective never exceeds the one-layer
// objective (decoupling can only help), and both are optimal for their
// constraint sets.
func TestPropertyTwoLayerNeverWorse(t *testing.T) {
	f := func(l0, l1, p0, p1, tr uint16) bool {
		sc := ConflictScenario{
			TrafficMbps: float64(tr%2000) + 1,
			LinkCap:     [2]float64{float64(l0%1000) + 1, float64(l1%1000) + 1},
			PodCap:      [2]float64{float64(p0%1000) + 1, float64(p1%1000) + 1},
		}
		one, err1 := SolveOneLayer(sc)
		two, err2 := SolveTwoLayer(sc)
		if err1 != nil || err2 != nil {
			return false
		}
		return two.Objective <= one.Objective+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(15))}); err != nil {
		t.Error(err)
	}
}
