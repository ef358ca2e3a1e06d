package placement

import "fmt"

// Affinity support. The paper notes (Section II) that multi-tier
// applications communicate with backends and that co-placement research
// "can also [be] incorporate[d]" into the architecture. This file adds
// that hook to the placement controller: affinity pairs declare that two
// applications exchange traffic, and the affinity-aware controller
// prefers placing their instances on common machines, cutting the
// cross-machine traffic the intra-DC fabric would otherwise carry.

// AffinityPair declares that apps A and B communicate and benefit from
// sharing machines.
type AffinityPair struct {
	A, B int
}

// ValidateAffinity checks pairs against the problem.
func (p *Problem) ValidateAffinity(pairs []AffinityPair) error {
	for _, pr := range pairs {
		if pr.A < 0 || pr.A >= p.NumApps() || pr.B < 0 || pr.B >= p.NumApps() {
			return fmt.Errorf("placement: affinity pair %v out of range", pr)
		}
		if pr.A == pr.B {
			return fmt.Errorf("placement: self-affinity %v", pr)
		}
	}
	return nil
}

// Colocation returns the fraction of affinity pairs that share at least
// one machine in the placement (1 when there are no pairs).
func Colocation(pl *Placement, pairs []AffinityPair) float64 {
	if len(pairs) == 0 {
		return 1
	}
	hosted := make([]map[int]bool, len(pl.Instances))
	for a, machines := range pl.Instances {
		hosted[a] = make(map[int]bool, len(machines))
		for _, m := range machines {
			hosted[a][m] = true
		}
	}
	met := 0
	for _, pr := range pairs {
		if pr.A >= len(hosted) || pr.B >= len(hosted) {
			continue
		}
		for m := range hosted[pr.A] {
			if hosted[pr.B][m] {
				met++
				break
			}
		}
	}
	return float64(met) / float64(len(pairs))
}

// AffinityController is the placement controller with co-placement
// preference: when adding an instance of an app with affinity partners,
// machines already hosting a partner are preferred (capacity permitting).
type AffinityController struct {
	Controller
	Pairs []AffinityPair
}

// Place runs the base controller, then performs an
// affinity pass that relocates instances of paired apps onto common
// machines when a feasible swap exists and costs no satisfied demand.
func (c *AffinityController) Place(p *Problem) *Placement {
	sol := c.Controller.Place(p)
	if len(c.Pairs) == 0 {
		return sol
	}
	if err := p.ValidateAffinity(c.Pairs); err != nil {
		return sol // ignore malformed pairs; base solution stands
	}
	c.affinityPass(p, sol)
	// Re-run the allocation for the final instance sets.
	alloc, _, _ := allocateCPU(p, sol.Instances)
	sol.Alloc = alloc
	return sol
}

// affinityPass tries, for each unmet pair, to move one instance of B to
// a machine hosting A (or vice versa), respecting memory and keeping the
// CPU allocation feasible (the post-pass reallocation re-optimizes CPU).
func (c *AffinityController) affinityPass(p *Problem, sol *Placement) {
	residMem := make([]float64, p.NumMachines())
	residCPU := make([]float64, p.NumMachines())
	copy(residMem, p.MachMem)
	copy(residCPU, p.MachCPU)
	hosts := make([]map[int]bool, p.NumApps())
	for a, machines := range sol.Instances {
		hosts[a] = make(map[int]bool, len(machines))
		for j, m := range machines {
			residMem[m] -= p.AppMem[a]
			residCPU[m] -= sol.Alloc[a][j]
			hosts[a][m] = true
		}
	}
	for _, pr := range c.Pairs {
		if colocated(hosts[pr.A], hosts[pr.B]) {
			continue
		}
		// Try moving an instance of B next to A, then A next to B.
		if c.moveNextTo(p, sol, hosts, residMem, residCPU, pr.B, pr.A) {
			continue
		}
		c.moveNextTo(p, sol, hosts, residMem, residCPU, pr.A, pr.B)
	}
}

func colocated(a, b map[int]bool) bool {
	for m := range a {
		if b[m] {
			return true
		}
	}
	return false
}

// moveNextTo relocates one instance of app `mv` onto a machine hosting
// app `anchor`, if the target has both the memory for the footprint and
// the spare CPU to keep serving what the instance served — otherwise the
// move would trade satisfied demand for locality. Reports success.
func (c *AffinityController) moveNextTo(p *Problem, sol *Placement, hosts []map[int]bool, residMem, residCPU []float64, mv, anchor int) bool {
	if len(sol.Instances[mv]) == 0 {
		return false
	}
	// Move the mv instance with the least CPU allocated (cheapest to
	// relocate).
	idx := 0
	for j := range sol.Instances[mv] {
		if sol.Alloc[mv][j] < sol.Alloc[mv][idx] {
			idx = j
		}
	}
	moved := sol.Alloc[mv][idx]
	// Target: anchor machine that fits the footprint AND can absorb the
	// moved allocation, with the most spare CPU.
	target := -1
	for m := range hosts[anchor] {
		if hosts[mv][m] || residMem[m] < p.AppMem[mv] || residCPU[m] < moved {
			continue
		}
		if target < 0 || residCPU[m] > residCPU[target] {
			target = m
		}
	}
	if target < 0 {
		return false
	}
	from := sol.Instances[mv][idx]
	sol.Instances[mv][idx] = target
	sol.Alloc[mv][idx] = moved
	delete(hosts[mv], from)
	hosts[mv][target] = true
	residMem[from] += p.AppMem[mv]
	residMem[target] -= p.AppMem[mv]
	residCPU[from] += moved
	residCPU[target] -= moved
	return true
}
