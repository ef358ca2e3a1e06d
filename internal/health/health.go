// Package health defines the component health state machine shared by
// every failure-prone substrate element (servers, LB switches, access
// links):
//
//	Healthy → FailedUndetected → FailedDetected → Repairing → Healthy
//	            └──────────────── repair ─────────────────────┘
//
// A fault first puts a component into FailedUndetected: the component
// stops doing useful work (traffic through it black-holes) but the
// control plane has not noticed yet, so monitoring still reports the
// pre-fault capacity and the management loops must not react. Once the
// detection delay elapses the component becomes FailedDetected, the
// control plane runs its reaction (evacuate VMs, re-home VIPs,
// re-advertise routes), and the component sits in Repairing until the
// repair completes and restores the exact pre-failure capacity. A fault
// that clears before detection (a link flap, say) jumps straight from
// FailedUndetected back to Healthy.
package health

// State is a component's position in the failure/repair lifecycle.
type State int

const (
	// Healthy components carry traffic and accept placements.
	Healthy State = iota
	// FailedUndetected components are down but the control plane has
	// not noticed: they black-hole work while monitoring looks normal.
	FailedUndetected
	// FailedDetected components are down and the control plane is
	// mid-reaction (a transient state within the detection step).
	FailedDetected
	// Repairing components have been detected, reacted to, and await
	// the repair that restores their pre-failure capacity.
	Repairing
)

// Serving reports whether the component is doing useful work: only
// Healthy components serve.
func (s State) Serving() bool { return s == Healthy }

// PhaseEdges classifies a state transition for latency accounting:
// inject marks the fault entering the system (a healthy component going
// dark), detect marks the control plane noticing (leaving
// FailedUndetected for a detected state — some reactions jump straight
// to Repairing in one transition), and repair marks the component
// returning to service. A flap that clears before detection
// (FailedUndetected→Healthy) reports repair without detect: the span
// layer uses that to close the lifecycle without recording a
// detection latency that never happened.
func PhaseEdges(from, to State) (inject, detect, repair bool) {
	inject = from == Healthy && to == FailedUndetected
	detect = from == FailedUndetected && (to == FailedDetected || to == Repairing)
	repair = from != Healthy && to == Healthy
	return inject, detect, repair
}

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case FailedUndetected:
		return "failed-undetected"
	case FailedDetected:
		return "failed-detected"
	case Repairing:
		return "repairing"
	default:
		return "unknown"
	}
}
