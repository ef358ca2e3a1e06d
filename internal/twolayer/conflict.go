// Package twolayer models the paper's Section V-B extension: a
// two-LB-layer architecture that inserts a demand-distribution layer of
// LB switches between the access connection layer and the
// load-balancing layer. External VIPs map to private middle-layer VIPs
// (m-VIPs), which map to the real RIPs, so selective VIP exposure
// (access-link balancing) and server-pod balancing become independent
// knobs. The package quantifies what that decoupling buys: the
// policy-conflict model behind experiments E11 and E13.
package twolayer

import (
	"fmt"
	"math"
)

// ConflictScenario is the analytical policy-conflict model behind
// experiments E11/E13 (paper Section V-B). The adversarial single-layer
// instance: every application has two VIPs; VIP A is advertised on
// access link 0 and maps to RIPs in pod 0; VIP B is advertised on link 1
// and maps to RIPs in pod 1. The DNS exposure split x (share of traffic
// sent to VIP A) therefore controls BOTH the link split AND the pod
// split — one knob, two objectives. In the two-layer design the external
// VIP choice controls only the link, while m-VIP weights control the pod
// split independently.
type ConflictScenario struct {
	TrafficMbps float64    // total application traffic
	LinkCap     [2]float64 // access link capacities
	PodCap      [2]float64 // serving capacity of each pod (Mbps-equivalent)
}

// Validate checks the scenario.
func (s ConflictScenario) Validate() error {
	if s.TrafficMbps <= 0 {
		return fmt.Errorf("twolayer: non-positive traffic")
	}
	for i := 0; i < 2; i++ {
		if s.LinkCap[i] <= 0 || s.PodCap[i] <= 0 {
			return fmt.Errorf("twolayer: non-positive capacity")
		}
	}
	return nil
}

// ConflictResult reports the best achievable operating point.
type ConflictResult struct {
	Arch        string
	Split       float64 // traffic share sent left (to link 0 / pod 0)
	PodSplit    float64 // two-layer only: pod 0 share (= Split for one-layer)
	MaxLinkUtil float64
	MaxPodUtil  float64
	Objective   float64 // max(MaxLinkUtil, MaxPodUtil)
}

// linkObjective returns the worse link utilization when share s of the
// traffic uses link 0.
func (sc ConflictScenario) linkObjective(s float64) float64 {
	u0 := sc.TrafficMbps * s / sc.LinkCap[0]
	u1 := sc.TrafficMbps * (1 - s) / sc.LinkCap[1]
	return math.Max(u0, u1)
}

// podObjective returns the worse pod utilization when share s of the
// traffic is served by pod 0.
func (sc ConflictScenario) podObjective(s float64) float64 {
	u0 := sc.TrafficMbps * s / sc.PodCap[0]
	u1 := sc.TrafficMbps * (1 - s) / sc.PodCap[1]
	return math.Max(u0, u1)
}

// minimizeUnimodal ternary-searches the minimum of f over [0,1]; every
// objective here is a max of one increasing and one decreasing linear
// function of s, hence unimodal.
func minimizeUnimodal(f func(float64) float64) (argmin, min float64) {
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if f(m1) < f(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	argmin = (lo + hi) / 2
	return argmin, f(argmin)
}

// SolveOneLayer finds the best single split x for the coupled
// single-layer architecture: the same x determines link and pod loads.
func SolveOneLayer(sc ConflictScenario) (ConflictResult, error) {
	if err := sc.Validate(); err != nil {
		return ConflictResult{}, err
	}
	obj := func(s float64) float64 {
		return math.Max(sc.linkObjective(s), sc.podObjective(s))
	}
	x, v := minimizeUnimodal(obj)
	return ConflictResult{
		Arch:        "one-layer",
		Split:       x,
		PodSplit:    x,
		MaxLinkUtil: sc.linkObjective(x),
		MaxPodUtil:  sc.podObjective(x),
		Objective:   v,
	}, nil
}

// SolveTwoLayer optimizes the link split and the pod split
// independently — what the demand-distribution layer makes possible.
func SolveTwoLayer(sc ConflictScenario) (ConflictResult, error) {
	if err := sc.Validate(); err != nil {
		return ConflictResult{}, err
	}
	xLink, vLink := minimizeUnimodal(sc.linkObjective)
	xPod, vPod := minimizeUnimodal(sc.podObjective)
	return ConflictResult{
		Arch:        "two-layer",
		Split:       xLink,
		PodSplit:    xPod,
		MaxLinkUtil: vLink,
		MaxPodUtil:  vPod,
		Objective:   math.Max(vLink, vPod),
	}, nil
}
