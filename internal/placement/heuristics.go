package placement

import (
	"cmp"
	"slices"
)

// FirstFit is the simple baseline placer: apps in descending demand
// order, instances appended on the first machine (by index) with spare
// memory and CPU until the app's demand is covered. Fast, oblivious to
// placement changes.
type FirstFit struct{}

// Name identifies the algorithm in experiment tables.
func (FirstFit) Name() string { return "first-fit" }

// Place solves the problem with a feasible placement.
func (FirstFit) Place(p *Problem) *Placement {
	return greedyPlace(p, func(_ *Problem, candidates []int, residCPU, _ []float64) int {
		for _, m := range candidates {
			if residCPU[m] > feaTol {
				return m
			}
		}
		return -1
	})
}

// BestFit places each instance on the machine whose residual CPU is the
// smallest that still helps (tightest fit), packing machines densely.
type BestFit struct{}

// Name identifies the algorithm in experiment tables.
func (BestFit) Name() string { return "best-fit" }

// Place solves the problem with a feasible placement.
func (BestFit) Place(p *Problem) *Placement {
	return greedyPlace(p, func(_ *Problem, candidates []int, residCPU, _ []float64) int {
		best, bestCPU := -1, 0.0
		for _, m := range candidates {
			if residCPU[m] <= feaTol {
				continue
			}
			if best < 0 || residCPU[m] < bestCPU {
				best, bestCPU = m, residCPU[m]
			}
		}
		return best
	})
}

// WorstFit places each instance on the machine with the most residual
// CPU, spreading load. It is the greedy analogue of the controller's
// instance-addition rule without the change-minimizing seed.
type WorstFit struct{}

// Name identifies the algorithm in experiment tables.
func (WorstFit) Name() string { return "worst-fit" }

// Place solves the problem with a feasible placement.
func (WorstFit) Place(p *Problem) *Placement {
	return greedyPlace(p, func(_ *Problem, candidates []int, residCPU, _ []float64) int {
		best, bestCPU := -1, feaTol
		for _, m := range candidates {
			if residCPU[m] > bestCPU {
				best, bestCPU = m, residCPU[m]
			}
		}
		return best
	})
}

// greedyPlace is the shared skeleton: cold-start, one pass over apps in
// descending demand order, choose machines via pick until the demand is
// covered or no machine qualifies.
func greedyPlace(p *Problem, pick func(p *Problem, candidates []int, residCPU, residMem []float64) int) *Placement {
	instances := make([][]int, p.NumApps())
	residCPU := make([]float64, p.NumMachines())
	residMem := make([]float64, p.NumMachines())
	copy(residCPU, p.MachCPU)
	copy(residMem, p.MachMem)

	order := make([]int, p.NumApps())
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		da, db := p.AppDemand[a], p.AppDemand[b]
		if da != db {
			if da > db {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})

	candidates := make([]int, 0, p.NumMachines())
	for _, a := range order {
		need := p.AppDemand[a]
		hosting := make(map[int]bool)
		for need > feaTol {
			candidates = candidates[:0]
			for m := 0; m < p.NumMachines(); m++ {
				if !hosting[m] && residMem[m] >= p.AppMem[a] {
					candidates = append(candidates, m)
				}
			}
			m := pick(p, candidates, residCPU, residMem)
			if m < 0 {
				break
			}
			instances[a] = append(instances[a], m)
			hosting[m] = true
			residMem[m] -= p.AppMem[a]
			take := residCPU[m]
			if take > need {
				take = need
			}
			residCPU[m] -= take
			need -= take
		}
	}
	alloc, _, _ := allocateCPU(p, instances)
	return &Placement{Instances: instances, Alloc: alloc}
}
