package placement_test

import (
	"fmt"

	"megadc/internal/placement"
)

// Solve a small placement problem with the Tang-style controller: two
// machines, three applications with divisible CPU demand and fixed
// per-instance memory footprints.
func Example() {
	prob := &placement.Problem{
		AppDemand: []float64{5, 2, 1},          // cores
		AppMem:    []float64{1024, 1024, 1024}, // MB per instance
		MachCPU:   []float64{4, 4},
		MachMem:   []float64{4096, 4096},
	}
	ctl := &placement.Controller{}
	sol := ctl.Place(prob)
	fmt.Printf("feasible: %v\n", placement.CheckFeasible(prob, sol) == nil)
	fmt.Printf("satisfied: %.0f%% of %.0f cores\n", sol.SatisfiedFraction(prob)*100, prob.TotalDemand())
	fmt.Printf("app 0 instances: %d (demand 5 > one machine's 4 cores)\n", len(sol.Instances[0]))
	// Output:
	// feasible: true
	// satisfied: 100% of 8 cores
	// app 0 instances: 2 (demand 5 > one machine's 4 cores)
}

// Incremental re-placement: seeding the problem with the current
// configuration minimizes placement changes — the controller objective
// the paper highlights.
func ExampleController_incremental() {
	prob := &placement.Problem{
		AppDemand: []float64{3, 2},
		AppMem:    []float64{1024, 1024},
		MachCPU:   []float64{4, 4},
		MachMem:   []float64{4096, 4096},
	}
	first := (&placement.Controller{}).Place(prob)
	again := *prob
	again.Current = first.Instances
	second := (&placement.Controller{}).Place(&again)
	fmt.Printf("changes on re-place: %d\n", second.Changes(&again))
	// Output:
	// changes on re-place: 0
}
