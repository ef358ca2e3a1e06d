package netmodel

import (
	"fmt"
	"slices"
)

// HoseFabric abstracts the modern intra-DC network topologies the paper
// builds on (VL2 [8], fat-tree [2], PortLand [17]) through the hose
// model: every host has a guaranteed ingress and egress bandwidth, and
// any traffic matrix whose per-host sums respect those guarantees is
// admissible — there is no other bottleneck. This is exactly the
// "guarantee bandwidth between any host-pair within the data center and
// provide flat address space" property the paper cites (Section III-B)
// to justify placing LB switches at the border and forming pods
// logically rather than physically.
type HoseFabric struct {
	// HostMbps is the default per-host ingress and egress bandwidth
	// guarantee. Individual hosts (e.g. LB switches, which attach to the
	// fabric with much fatter pipes) can override it via SetHostCap.
	HostMbps float64

	caps    map[int]float64 // per-host overrides
	ingress map[int]float64 // hostID → offered ingress Mbps
	egress  map[int]float64
}

// NewHoseFabric returns a fabric with the given per-host guarantee.
func NewHoseFabric(hostMbps float64) *HoseFabric {
	if hostMbps <= 0 {
		panic("netmodel: hose guarantee must be positive")
	}
	return &HoseFabric{
		HostMbps: hostMbps,
		caps:     make(map[int]float64),
		ingress:  make(map[int]float64),
		egress:   make(map[int]float64),
	}
}

// SetHostCap overrides one host's hose guarantee.
func (h *HoseFabric) SetHostCap(host int, mbps float64) {
	if mbps <= 0 {
		panic("netmodel: host cap must be positive")
	}
	h.caps[host] = mbps
}

// capOf returns the effective guarantee for a host.
func (h *HoseFabric) capOf(host int) float64 {
	if c, ok := h.caps[host]; ok {
		return c
	}
	return h.HostMbps
}

// Flow is one src→dst traffic demand across the fabric. Host IDs are
// opaque integers; by convention the experiments use server IDs, and
// negative IDs for LB switches (which sit on the fabric too).
type Flow struct {
	Src, Dst int
	Mbps     float64
}

// Offer adds a flow to the fabric's current traffic matrix.
func (h *HoseFabric) Offer(f Flow) error {
	if f.Mbps < 0 {
		return fmt.Errorf("netmodel: negative flow %v", f.Mbps)
	}
	h.egress[f.Src] += f.Mbps
	h.ingress[f.Dst] += f.Mbps
	return nil
}

// Reset clears the traffic matrix.
func (h *HoseFabric) Reset() {
	h.ingress = make(map[int]float64)
	h.egress = make(map[int]float64)
}

// Admissible reports whether the current traffic matrix respects every
// host's hose guarantee, and if not, returns the violating hosts.
func (h *HoseFabric) Admissible() (bool, []int) {
	bad := make(map[int]bool)
	for host, v := range h.ingress {
		if v > h.capOf(host)+1e-9 {
			bad[host] = true
		}
	}
	for host, v := range h.egress {
		if v > h.capOf(host)+1e-9 {
			bad[host] = true
		}
	}
	if len(bad) == 0 {
		return true, nil
	}
	out := make([]int, 0, len(bad))
	for host := range bad {
		out = append(out, host)
	}
	slices.Sort(out)
	return false, out
}

// TrafficSplit summarizes a data center's traffic mix: the external
// fraction crossing the LB fabric vs the intra-DC traffic that flows
// below it. The paper cites VL2's measurement that only ~20% of traffic
// enters/leaves the DC (Section III-B).
type TrafficSplit struct {
	ExternalMbps float64
	InternalMbps float64
}

// ExternalFraction returns external / (external + internal), or 0 when
// there is no traffic.
func (t TrafficSplit) ExternalFraction() float64 {
	total := t.ExternalMbps + t.InternalMbps
	if total == 0 {
		return 0
	}
	return t.ExternalMbps / total
}
