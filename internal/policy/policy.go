// Package policy is the pluggable control-policy framework (DESIGN.md
// §15, ROADMAP item 3). The global manager's VIP/RIP allocation and
// knob-target selection used to be a single hardcoded greedy strategy
// spread across internal/viprip and internal/core; this package
// extracts those decisions behind a Placement/Steering interface pair
// so competing strategies — round-robin, omniscient full scans,
// cached state with bounded probes, power-of-k-choices, stateless
// straw2 hashing, the §V m-VIP grouping — can race on identical
// scenarios (experiment E18).
//
// The package is a dependency leaf: decisions arrive as abstract
// candidate lists (stable uint64 keys plus load/size accessors), so
// policies never import the fabric or cluster packages and both
// internal/viprip and internal/core can import this one without
// cycles.
//
// Determinism contract: a policy must be a pure function of its
// construction seed and the sequence of Decisions it has been asked to
// make. Policies never touch the platform's RNG — power-of-k draws
// from its own seeded generator — so swapping policies can never
// perturb an unrelated part of a seeded run, and the same seed always
// yields byte-identical placements (TestPolicyDeterminism).
package policy

import (
	"fmt"
	"sort"
)

// Decision is one selection instance offered to a policy. The caller
// (the viprip manager or the global manager) has already applied every
// hard feasibility constraint — capacity limits, serving state,
// overload/underload thresholds — so all N candidates are legal and
// the policy only expresses preference. Candidates keep the caller's
// deterministic iteration order (switch ID order, pod onboarding
// order); policies must not depend on anything else.
type Decision struct {
	// Actor stably identifies who the choice is for (application ID,
	// hashed VIP address, recipient pod): the hashing policies key on
	// it. Callers derive it from simulation identities, never pointers.
	Actor uint64
	// N is the number of candidates; callers never issue N == 0.
	N int
	// Key returns the stable identity of candidate i (switch or pod
	// ID) for hashing and caching policies.
	Key func(i int) uint64
	// Load returns candidate i's load score; lower is better. Each
	// call models one control-plane state probe (Stats.Probes), which
	// is exactly what the frugal policies economize on.
	Load func(i int) float64
	// Group returns a secondary smallness metric used for tie-breaks
	// (the RIP-group size in VIPForRIP); nil when the decision has
	// none.
	Group func(i int) int
}

// probe reads candidate i's load, charging one probe to st.
func (d Decision) probe(i int, st *Stats) float64 {
	if st != nil {
		st.Probes++
	}
	return d.Load(i)
}

// Kind distinguishes the decision call sites so stateful policies
// (round-robin cursors, cached load tables) can keep independent state
// per site.
type Kind int

// The decision call sites.
const (
	KindVIPSwitch Kind = iota
	KindVIPForRIP
	KindTransferTarget
	KindDeployPod
	KindDonorPod
	numKinds
)

// Placement decides switch-level allocation: where new VIPs land,
// which of an application's VIPs hosts a new RIP, and where a drained
// VIP transfers to.
type Placement interface {
	Name() string
	// VIPSwitch picks the switch for a new VIP; returns a candidate
	// index, or -1 to decline.
	VIPSwitch(d Decision) int
	// VIPForRIP picks which of an application's VIPs hosts a new RIP.
	VIPForRIP(d Decision) int
	// TransferTarget picks the destination switch of a VIP transfer
	// (knob B).
	TransferTarget(d Decision) int
}

// Steering decides pod-level knob targets: which pod receives a
// relieving deployment (knob D) and which pod donates a server
// (knob C).
type Steering interface {
	Name() string
	DeployPod(d Decision) int
	DonorPod(d Decision) int
}

// Stats counts the control-plane state probes a policy issued — the
// cost axis that separates the omniscient scans from the bounded-probe
// strategies in the E18 tournament.
type Stats struct {
	Probes int64
}

// Bundle couples one named policy's placement and steering halves with
// its probe counter.
type Bundle struct {
	Name      string
	Placement Placement
	Steering  Steering
	Stats     *Stats
}

// factories maps registered policy names to constructors. Seeds feed
// only policies that need private randomness (power-of-k).
var factories = map[string]func(seed int64) Bundle{}

// Register adds a policy constructor under name. Registration happens
// in package init functions; duplicate names panic.
func Register(name string, f func(seed int64) Bundle) {
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	factories[name] = f
}

// Names returns the registered policy names in sorted order — the
// tournament's sweep axis.
func Names() []string {
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New constructs the named policy. The empty name resolves to
// DefaultName (the extracted greedy, byte-identical to the
// pre-framework behavior).
func New(name string, seed int64) (Bundle, error) {
	if name == "" {
		name = DefaultName
	}
	f, ok := factories[name]
	if !ok {
		return Bundle{}, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
	}
	return f(seed), nil
}

// DefaultName is the policy used when none is configured.
const DefaultName = "greedy"

// argmin returns the index of the strictly smallest load among all N
// candidates, first-wins on exact ties — the shared full-scan shape.
func argmin(d Decision, st *Stats) int {
	best, bestLoad := -1, 0.0
	for i := 0; i < d.N; i++ {
		if l := d.probe(i, st); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}
