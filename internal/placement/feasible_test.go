package placement

import "fmt"

// CheckFeasible verifies the placement respects every constraint of the
// problem: machine CPU and memory capacities, non-negative allocations,
// per-app allocation not exceeding demand, and no duplicate instances.
func CheckFeasible(p *Problem, pl *Placement) error {
	if len(pl.Instances) != p.NumApps() || len(pl.Alloc) != p.NumApps() {
		return fmt.Errorf("placement: solution app count mismatch")
	}
	cpuUse := make([]float64, p.NumMachines())
	memUse := make([]float64, p.NumMachines())
	for a := range pl.Instances {
		if len(pl.Instances[a]) != len(pl.Alloc[a]) {
			return fmt.Errorf("placement: app %d instances/alloc length mismatch", a)
		}
		seen := make(map[int]bool)
		var appAlloc float64
		for j, m := range pl.Instances[a] {
			if m < 0 || m >= p.NumMachines() {
				return fmt.Errorf("placement: app %d instance on bad machine %d", a, m)
			}
			if seen[m] {
				return fmt.Errorf("placement: app %d has duplicate instance on machine %d", a, m)
			}
			seen[m] = true
			if pl.Alloc[a][j] < -feaTol {
				return fmt.Errorf("placement: app %d negative alloc %v", a, pl.Alloc[a][j])
			}
			cpuUse[m] += pl.Alloc[a][j]
			memUse[m] += p.AppMem[a]
			appAlloc += pl.Alloc[a][j]
		}
		if appAlloc > p.AppDemand[a]+feaTol*(1+p.AppDemand[a]) {
			return fmt.Errorf("placement: app %d allocated %v > demand %v", a, appAlloc, p.AppDemand[a])
		}
	}
	for m := range cpuUse {
		if cpuUse[m] > p.MachCPU[m]+feaTol*(1+p.MachCPU[m]) {
			return fmt.Errorf("placement: machine %d CPU %v > cap %v", m, cpuUse[m], p.MachCPU[m])
		}
		if memUse[m] > p.MachMem[m]+feaTol*(1+p.MachMem[m]) {
			return fmt.Errorf("placement: machine %d mem %v > cap %v", m, memUse[m], p.MachMem[m])
		}
	}
	return nil
}

// numInstances returns the total instance count of a placement.
func numInstances(pl *Placement) int {
	n := 0
	for _, machines := range pl.Instances {
		n += len(machines)
	}
	return n
}

// withCurrent returns a copy of p seeded with pl as its Current
// configuration, for incremental re-placement.
func withCurrent(p *Problem, pl *Placement) *Problem {
	cp := *p
	cp.Current = pl.Instances
	return &cp
}
