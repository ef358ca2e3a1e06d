package viprip

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
)

// Hierarchy implements the paper's Section V-A fallback for when global
// VIP allocation itself becomes a bottleneck: "divide LB switches into
// logical pods, each managed by its own LB switch pod manager. The
// global manager would allocate addresses to LB switch pods ... and also
// redistribute the switches among the switch pods to balance their size
// and hence the work of the switch pod managers."
//
// The hierarchy makes each allocation a two-level decision: O(pods) to
// pick a switch pod (by aggregate pressure), then the manager's
// placement over that pod's switches only — instead of scanning every
// switch. Scans counts switch examinations so experiments can report
// the work saved. The switch redistribution is not modelled: the
// round-robin partition is fixed for the hierarchy's lifetime.
type Hierarchy struct {
	mgr *Manager

	pods [][]lbswitch.SwitchID

	// Scans counts switches examined across all allocations.
	Scans int64
}

// NewHierarchy partitions the manager's switches into nPods switch pods
// (round-robin). Allocations inside a pod use the manager's policy and
// placement.
func NewHierarchy(mgr *Manager, nPods int) (*Hierarchy, error) {
	fabric := mgr.fabric
	if nPods <= 0 {
		return nil, fmt.Errorf("viprip: need at least one switch pod")
	}
	if fabric.NumSwitches() < nPods {
		return nil, fmt.Errorf("viprip: %d pods for %d switches", nPods, fabric.NumSwitches())
	}
	h := &Hierarchy{mgr: mgr, pods: make([][]lbswitch.SwitchID, nPods)}
	for i, sw := range fabric.Switches() {
		pod := i % nPods
		h.pods[pod] = append(h.pods[pod], sw.ID)
	}
	return h, nil
}

// NumPods returns the number of switch pods.
func (h *Hierarchy) NumPods() int { return len(h.pods) }

// podPressure is a switch pod's aggregate allocation pressure: the mean
// of its switches' blend scores.
func (h *Hierarchy) podPressure(pod int) float64 {
	if len(h.pods[pod]) == 0 {
		return 1e18
	}
	var sum float64
	for _, id := range h.pods[pod] {
		sum += blend(h.mgr.fabric.Switch(id))
	}
	return sum / float64(len(h.pods[pod]))
}

// AddVIP allocates a VIP two-level: least-pressured switch pod first,
// then the manager's placement among that pod's switches (in ascending
// ID order). Only the chosen pod's switches are scanned.
func (h *Hierarchy) AddVIP(app cluster.AppID) (lbswitch.VIP, lbswitch.SwitchID, error) {
	// Level 1: pick the pod (O(pods), not counted as switch scans —
	// pressures are maintained by the pod managers in a real system).
	best := -1
	var bestP float64
	for pod := range h.pods {
		if !h.podHasRoom(pod) {
			continue
		}
		p := h.podPressure(pod)
		if best < 0 || p < bestP {
			best, bestP = pod, p
		}
	}
	if best < 0 {
		return "", 0, ErrNoSwitch
	}
	// Level 2: the manager's placement inside the pod.
	h.Scans += int64(len(h.pods[best]))
	return h.mgr.addVIPAmong(app, h.pods[best])
}

func (h *Hierarchy) podHasRoom(pod int) bool {
	for _, id := range h.pods[pod] {
		sw := h.mgr.fabric.Switch(id)
		if sw.NumVIPs() < sw.Limits.MaxVIPs {
			return true
		}
	}
	return false
}

// CheckInvariants verifies the pod partition: every switch in exactly
// one pod.
func (h *Hierarchy) CheckInvariants() error {
	seen := make(map[lbswitch.SwitchID]int)
	for pod, ids := range h.pods {
		for _, id := range ids {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("viprip: switch %d in pods %d and %d", id, prev, pod)
			}
			seen[id] = pod
		}
	}
	if len(seen) != h.mgr.fabric.NumSwitches() {
		return fmt.Errorf("viprip: %d switches partitioned, fabric has %d", len(seen), h.mgr.fabric.NumSwitches())
	}
	return nil
}
