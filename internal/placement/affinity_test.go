package placement

import (
	"math"
	"math/rand"
	"testing"
)

func TestValidateAffinity(t *testing.T) {
	p := tinyProblem(1, 1)
	if err := p.ValidateAffinity([]AffinityPair{{0, 1}}); err != nil {
		t.Errorf("valid pair rejected: %v", err)
	}
	if err := p.ValidateAffinity([]AffinityPair{{0, 5}}); err == nil {
		t.Error("out-of-range pair accepted")
	}
	if err := p.ValidateAffinity([]AffinityPair{{1, 1}}); err == nil {
		t.Error("self pair accepted")
	}
}

func TestColocationMeasure(t *testing.T) {
	pl := &Placement{Instances: [][]int{{0, 1}, {1}, {2}}}
	pairs := []AffinityPair{{0, 1}, {0, 2}}
	// Pair (0,1) shares machine 1; pair (0,2) shares nothing.
	if got := Colocation(pl, pairs); got != 0.5 {
		t.Errorf("Colocation = %v, want 0.5", got)
	}
	if got := Colocation(pl, nil); got != 1 {
		t.Errorf("empty pairs = %v, want 1", got)
	}
}

func TestAffinityControllerColocatesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := Generate(40, 20, 0.5, rng)
	// Pair up neighbouring apps.
	var pairs []AffinityPair
	for a := 0; a+1 < 40; a += 2 {
		pairs = append(pairs, AffinityPair{a, a + 1})
	}
	base := (&Controller{}).Place(p)
	aff := (&AffinityController{Pairs: pairs}).Place(p)

	if err := CheckFeasible(p, aff); err != nil {
		t.Fatalf("affinity placement infeasible: %v", err)
	}
	cBase := Colocation(base, pairs)
	cAff := Colocation(aff, pairs)
	if cAff <= cBase {
		t.Errorf("colocation %v (affinity) ≤ %v (base)", cAff, cBase)
	}
	if cAff < 0.8 {
		t.Errorf("affinity colocation only %v", cAff)
	}
	// Quality preserved: satisfied demand within 2% of the base.
	if aff.Satisfied() < 0.98*base.Satisfied() {
		t.Errorf("affinity cost too high: %v vs %v", aff.Satisfied(), base.Satisfied())
	}
}

func TestAffinityControllerNoPairsEqualsBase(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := Generate(30, 12, 0.7, rng)
	base := (&Controller{}).Place(p)
	aff := (&AffinityController{}).Place(p)
	if math.Abs(base.Satisfied()-aff.Satisfied()) > 1e-9 {
		t.Errorf("no-pairs affinity differs: %v vs %v", aff.Satisfied(), base.Satisfied())
	}
}

func TestAffinityControllerIgnoresBadPairs(t *testing.T) {
	p := tinyProblem(2, 2)
	aff := (&AffinityController{Pairs: []AffinityPair{{0, 99}}}).Place(p)
	if err := CheckFeasible(p, aff); err != nil {
		t.Fatalf("infeasible with bad pairs: %v", err)
	}
	if got := aff.SatisfiedFraction(p); got < 0.999 {
		t.Errorf("satisfaction = %v", got)
	}
}

func TestAffinityRespectsMemory(t *testing.T) {
	// Machines fit exactly one instance: colocation impossible; the
	// pass must not force an infeasible move.
	p := &Problem{
		AppDemand: []float64{2, 2},
		AppMem:    []float64{1024, 1024},
		MachCPU:   []float64{4, 4},
		MachMem:   []float64{1024, 1024},
	}
	aff := (&AffinityController{Pairs: []AffinityPair{{0, 1}}}).Place(p)
	if err := CheckFeasible(p, aff); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if got := Colocation(aff, []AffinityPair{{0, 1}}); got != 0 {
		t.Errorf("colocation = %v on memory-tight machines, want 0", got)
	}
	if got := aff.SatisfiedFraction(p); got < 0.999 {
		t.Errorf("satisfaction = %v", got)
	}
}
