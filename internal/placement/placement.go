// Package placement implements the application placement algorithms the
// paper's pod managers run, in particular a faithful reimplementation of
// the class of *application placement controllers* the paper cites as
// the state of the art ([23] Tang et al., WWW 2006): given applications
// with divisible CPU demand and a fixed memory footprint per instance,
// and machines with CPU and memory capacities, compute instance
// placements and CPU allocations that maximize satisfied demand while
// minimizing placement changes relative to the current configuration.
//
// The controller's execution time grows super-linearly with machines ×
// applications — the very scalability ceiling (≈30 s for 7,000 servers /
// 17,500 applications) that motivates the paper's hierarchical pods. The
// scalability experiments (E2/E3) measure that growth directly, and the
// hierarchical manager in internal/core bounds it by capping pod size.
package placement

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Problem is one placement problem instance. All slices are indexed by
// dense app/machine indices local to the problem.
type Problem struct {
	AppDemand []float64 // total divisible CPU demand per app (cores)
	AppMem    []float64 // memory per instance of each app (MB)
	MachCPU   []float64 // CPU capacity per machine (cores)
	MachMem   []float64 // memory capacity per machine (MB)

	// Current[a] lists machines currently hosting an instance of app a.
	// Used to minimize placement changes; may be nil for a cold start.
	Current [][]int
}

// NumApps returns the number of applications in the problem.
func (p *Problem) NumApps() int { return len(p.AppDemand) }

// NumMachines returns the number of machines in the problem.
func (p *Problem) NumMachines() int { return len(p.MachCPU) }

// Validate checks the problem for structural errors.
func (p *Problem) Validate() error {
	if len(p.AppDemand) != len(p.AppMem) {
		return fmt.Errorf("placement: %d demands vs %d mem footprints", len(p.AppDemand), len(p.AppMem))
	}
	if len(p.MachCPU) != len(p.MachMem) {
		return fmt.Errorf("placement: %d cpu caps vs %d mem caps", len(p.MachCPU), len(p.MachMem))
	}
	for a, d := range p.AppDemand {
		if d < 0 || p.AppMem[a] < 0 {
			return fmt.Errorf("placement: app %d negative demand or memory", a)
		}
	}
	for m := range p.MachCPU {
		if p.MachCPU[m] < 0 || p.MachMem[m] < 0 {
			return fmt.Errorf("placement: machine %d negative capacity", m)
		}
	}
	if p.Current != nil && len(p.Current) != len(p.AppDemand) {
		return fmt.Errorf("placement: Current has %d apps, problem has %d", len(p.Current), len(p.AppDemand))
	}
	for a, machines := range p.Current {
		for _, m := range machines {
			if m < 0 || m >= len(p.MachCPU) {
				return fmt.Errorf("placement: app %d current instance on bad machine %d", a, m)
			}
		}
	}
	return nil
}

// TotalDemand returns the summed CPU demand.
func (p *Problem) TotalDemand() float64 {
	var s float64
	for _, d := range p.AppDemand {
		s += d
	}
	return s
}

// Placement is a solution: instance sets and CPU allocations.
type Placement struct {
	// Instances[a] lists machines hosting an instance of app a,
	// parallel to Alloc[a].
	Instances [][]int
	// Alloc[a][j] is the CPU allocated to app a's instance on machine
	// Instances[a][j].
	Alloc [][]float64
}

// Satisfied returns the total CPU demand satisfied by the placement.
func (pl *Placement) Satisfied() float64 {
	var s float64
	for _, allocs := range pl.Alloc {
		for _, v := range allocs {
			s += v
		}
	}
	return s
}

// SatisfiedFraction returns satisfied demand over total demand (1 when
// the problem has zero demand).
func (pl *Placement) SatisfiedFraction(p *Problem) float64 {
	total := p.TotalDemand()
	if total == 0 {
		return 1
	}
	return pl.Satisfied() / total
}

// Changes returns the number of placement changes (instance additions +
// removals) relative to the problem's Current configuration.
func (pl *Placement) Changes(p *Problem) int {
	changes := 0
	for a := range pl.Instances {
		var cur map[int]bool
		if p.Current != nil {
			cur = make(map[int]bool, len(p.Current[a]))
			for _, m := range p.Current[a] {
				cur[m] = true
			}
		}
		now := make(map[int]bool, len(pl.Instances[a]))
		for _, m := range pl.Instances[a] {
			now[m] = true
		}
		for m := range now {
			if !cur[m] {
				changes++ // added
			}
		}
		for m := range cur {
			if !now[m] {
				changes++ // removed
			}
		}
	}
	return changes
}

const feaTol = 1e-6

// allocateCPU performs the water-filling CPU allocation phase shared by
// all placers: given fixed instance sets, allocate each app's demand
// across its instances' machines, most-spare-CPU machines first, apps in
// descending demand order. Returns per-app residual demand and per-
// machine residual CPU.
func allocateCPU(p *Problem, instances [][]int) (alloc [][]float64, residApp []float64, residCPU []float64) {
	alloc = make([][]float64, p.NumApps())
	residApp = make([]float64, p.NumApps())
	residCPU = make([]float64, p.NumMachines())
	copy(residCPU, p.MachCPU)

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

	for _, a := range order {
		alloc[a] = make([]float64, len(instances[a]))
		need := p.AppDemand[a]
		// Visit this app's machines in descending residual CPU.
		idx := make([]int, len(instances[a]))
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(x, y int) int {
			rx, ry := residCPU[instances[a][x]], residCPU[instances[a][y]]
			if rx != ry {
				if rx > ry {
					return -1
				}
				return 1
			}
			return cmp.Compare(instances[a][x], instances[a][y])
		})
		for _, j := range idx {
			if need <= feaTol {
				break
			}
			m := instances[a][j]
			take := math.Min(need, residCPU[m])
			if take <= 0 {
				continue
			}
			alloc[a][j] = take
			residCPU[m] -= take
			need -= take
		}
		residApp[a] = need
	}
	return alloc, residApp, residCPU
}
