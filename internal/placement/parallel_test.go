package placement

import (
	"math"
	"math/rand"
	"testing"
)

func TestSplitIntoPods(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	prob := Generate(100, 40, 0.7, rng)
	subs := SplitIntoPods(prob, 10)
	if len(subs) != 4 {
		t.Fatalf("pods = %d", len(subs))
	}
	var machines, apps int
	var demand float64
	for _, s := range subs {
		machines += s.NumMachines()
		apps += s.NumApps()
		demand += s.TotalDemand()
		if err := s.Validate(); err != nil {
			t.Errorf("sub-problem invalid: %v", err)
		}
	}
	if machines != 40 || apps != 100 {
		t.Errorf("partition lost items: %d machines, %d apps", machines, apps)
	}
	if math.Abs(demand-prob.TotalDemand()) > 1e-9 {
		t.Errorf("demand not conserved: %v vs %v", demand, prob.TotalDemand())
	}
	// Uneven split.
	subs = SplitIntoPods(prob, 17)
	if len(subs) != 3 || subs[2].NumMachines() != 6 {
		t.Errorf("uneven split wrong: %d pods, last %d machines", len(subs), subs[2].NumMachines())
	}
	if SplitIntoPods(prob, 0) != nil {
		t.Error("podSize 0 accepted")
	}
}

func TestParallelPlaceMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	prob := Generate(200, 80, 0.7, rng)
	subs := SplitIntoPods(prob, 10)
	seq := ParallelPlace(subs, 1)
	par := ParallelPlace(subs, 8)
	if len(seq) != len(subs) || len(par) != len(subs) {
		t.Fatal("result length mismatch")
	}
	for i := range subs {
		if err := CheckFeasible(subs[i], par[i]); err != nil {
			t.Errorf("pod %d parallel infeasible: %v", i, err)
		}
		// The controller is deterministic: identical solutions either way.
		if math.Abs(seq[i].Satisfied()-par[i].Satisfied()) > 1e-9 {
			t.Errorf("pod %d: seq %v vs par %v", i, seq[i].Satisfied(), par[i].Satisfied())
		}
		if numInstances(seq[i]) != numInstances(par[i]) {
			t.Errorf("pod %d instance counts differ", i)
		}
	}
}

func TestParallelPlaceEdgeCases(t *testing.T) {
	if got := ParallelPlace(nil, 4); len(got) != 0 {
		t.Errorf("empty input -> %d results", len(got))
	}
	rng := rand.New(rand.NewSource(33))
	one := []*Problem{Generate(10, 4, 0.7, rng)}
	got := ParallelPlace(one, 0) // GOMAXPROCS default
	if len(got) != 1 || got[0] == nil {
		t.Fatal("single problem not solved")
	}
	if err := CheckFeasible(one[0], got[0]); err != nil {
		t.Error(err)
	}
}

func BenchmarkParallelPlacePods(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	prob := Generate(2500, 1000, 0.7, rng)
	subs := SplitIntoPods(prob, 125)
	for _, workers := range []int{1, 4} {
		workers := workers
		name := "workers-1"
		if workers == 4 {
			name = "workers-4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ParallelPlace(subs, workers)
			}
		})
	}
}
