package placement

import (
	"cmp"
	"slices"
)

// Controller is the Tang-style application placement controller. It
// alternates a CPU-allocation phase (water-filling over the current
// instance sets) with a placement-change phase that adds instances of
// under-served applications on machines with spare memory — evicting
// idle instances when memory is the bottleneck — until demand is fully
// satisfied or no further progress is possible.
//
// Starting from the problem's Current configuration and adding instances
// only where needed is what minimizes placement changes, the controller
// objective the paper highlights ("minimize application placement
// changes"). Its cost grows super-linearly in machines × apps because
// every outer iteration re-runs the full allocation sweep; this is the
// measured subject of experiments E2 and E3.
type Controller struct {
	// MaxIters caps outer iterations; 0 means no explicit cap (the
	// algorithm still terminates because every iteration must make
	// progress).
	MaxIters int

	// LastIterations reports the outer iterations of the most recent
	// Place call (experiment output; not part of the solution).
	LastIterations int
}

// Place solves the problem with a feasible placement.
func (c *Controller) Place(p *Problem) *Placement {
	instances := startFromCurrent(p)

	maxIters := c.MaxIters
	if maxIters <= 0 {
		// Every productive iteration adds at least one instance, and the
		// instance count is bounded by total memory over min footprint;
		// this cap is a safety net, not the normal exit.
		maxIters = p.NumApps() + p.NumMachines() + 16
	}

	var alloc [][]float64
	var residApp, residCPU []float64
	iters := 0
	for ; iters < maxIters; iters++ {
		alloc, residApp, residCPU = allocateCPU(p, instances)
		if !c.improve(p, instances, alloc, residApp, residCPU) {
			break
		}
	}
	// Final allocation for the final instance sets.
	alloc, _, _ = allocateCPU(p, instances)
	c.LastIterations = iters + 1
	return &Placement{Instances: instances, Alloc: alloc}
}

// startFromCurrent seeds the instance sets from the problem's Current
// configuration, dropping anything that does not fit machine memory
// (e.g. stale state after capacities shrank).
func startFromCurrent(p *Problem) [][]int {
	instances := make([][]int, p.NumApps())
	residMem := make([]float64, p.NumMachines())
	copy(residMem, p.MachMem)
	if p.Current == nil {
		return instances
	}
	for a, machines := range p.Current {
		for _, m := range machines {
			if p.AppMem[a] <= residMem[m] {
				instances[a] = append(instances[a], m)
				residMem[m] -= p.AppMem[a]
			}
		}
	}
	return instances
}

// improve runs one placement-change phase. It mutates instances in place
// and reports whether it made progress.
func (c *Controller) improve(p *Problem, instances [][]int, alloc [][]float64, residApp, residCPU []float64) bool {
	residMem := make([]float64, p.NumMachines())
	copy(residMem, p.MachMem)
	hosts := make([]map[int]bool, p.NumApps())
	for a, machines := range instances {
		hosts[a] = make(map[int]bool, len(machines))
		for _, m := range machines {
			residMem[m] -= p.AppMem[a]
			hosts[a][m] = true
		}
	}

	// Apps by descending residual demand.
	order := make([]int, 0, p.NumApps())
	for a, r := range residApp {
		if r > feaTol {
			order = append(order, a)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := residApp[a], residApp[b]
		if ra != rb {
			if ra > rb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})

	progress := false
	for _, a := range order {
		need := residApp[a]
		for need > feaTol {
			m := bestMachine(p, a, hosts[a], residCPU, residMem)
			if m < 0 {
				// Memory-blocked: evict one idle instance somewhere with
				// spare CPU, then retry once.
				if !evictIdle(p, a, instances, alloc, hosts, residMem, residCPU) {
					break
				}
				m = bestMachine(p, a, hosts[a], residCPU, residMem)
				if m < 0 {
					break
				}
			}
			instances[a] = append(instances[a], m)
			hosts[a][m] = true
			residMem[m] -= p.AppMem[a]
			take := residCPU[m]
			if take > need {
				take = need
			}
			residCPU[m] -= take
			need -= take
			// Keep alloc parallel to instances so the idle-instance scan
			// in evictIdle stays index-aligned.
			alloc[a] = append(alloc[a], take)
			progress = true
		}
	}
	return progress
}

// bestMachine returns the machine with the most residual CPU among those
// with spare memory for app a, spare CPU, and no existing instance of a.
// Returns -1 when none qualifies.
func bestMachine(p *Problem, a int, hosting map[int]bool, residCPU, residMem []float64) int {
	best := -1
	bestCPU := feaTol
	for m := 0; m < p.NumMachines(); m++ {
		if hosting[m] || residMem[m] < p.AppMem[a] {
			continue
		}
		if residCPU[m] > bestCPU {
			best = m
			bestCPU = residCPU[m]
		}
	}
	return best
}

// evictIdle removes one instance with zero CPU allocation of some app b
// from the machine with the most residual CPU whose memory would become
// sufficient for app a. Reports whether an eviction happened.
func evictIdle(p *Problem, a int, instances [][]int, alloc [][]float64, hosts []map[int]bool, residMem, residCPU []float64) bool {
	bestApp, bestJ, bestM := -1, -1, -1
	bestCPU := feaTol
	for b := range instances {
		if b == a {
			continue
		}
		for j, m := range instances[b] {
			if alloc[b][j] > feaTol {
				continue // not idle
			}
			if hosts[a][m] {
				continue // a already there
			}
			if residMem[m]+p.AppMem[b] < p.AppMem[a] {
				continue // eviction would not free enough memory
			}
			if residCPU[m] > bestCPU {
				bestApp, bestJ, bestM = b, j, m
				bestCPU = residCPU[m]
			}
		}
	}
	if bestApp < 0 {
		return false
	}
	instances[bestApp] = append(instances[bestApp][:bestJ], instances[bestApp][bestJ+1:]...)
	alloc[bestApp] = append(alloc[bestApp][:bestJ], alloc[bestApp][bestJ+1:]...)
	delete(hosts[bestApp], bestM)
	residMem[bestM] += p.AppMem[bestApp]
	return true
}
