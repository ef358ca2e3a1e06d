package policy

// MVIP promotes the paper's §V-B two-LB-layer m-VIP idea to a
// first-class single-fabric policy. The two-layer design conserves
// m-VIPs by concentrating each application on one small stable switch
// group; here the candidates are hashed into Groups buckets by
// identity, the actor is hashed to one bucket, and selection runs only
// inside that bucket (falling back to the full set when the bucket has
// no feasible member). Within the bucket the m-VIP heuristics apply:
// least load for placement and fewest-RIPs-first for RIP spreading.
// Probes are paid only for the bucket, so the probe bill scales with
// the group size, not the fabric.
type MVIP struct {
	stats  *Stats
	groups uint64
	// scratch is the per-decision bucket-member list, reused across
	// calls to keep decisions allocation-free.
	scratch []int
}

// DefaultMVIPGroups is the bucket count of the registered "mvip"
// policy — the analogue of the m-VIP set size.
const DefaultMVIPGroups = 4

// NewMVIP returns the m-VIP grouping policy with the given bucket
// count (minimum 2).
func NewMVIP(groups int, stats *Stats) *MVIP {
	if groups < 2 {
		groups = 2
	}
	return &MVIP{stats: stats, groups: uint64(groups)}
}

func init() {
	Register("mvip", func(seed int64) Bundle {
		st := &Stats{}
		m := NewMVIP(DefaultMVIPGroups, st)
		return Bundle{Name: "mvip", Placement: m, Steering: m, Stats: st}
	})
}

// Name implements Placement and Steering.
func (m *MVIP) Name() string { return "mvip" }

// bucket returns the candidate indices in the actor's group, or all
// indices when the group has no feasible member this decision.
func (m *MVIP) bucket(d Decision) []int {
	gid := uint64(hash2(d.Actor, 0x6d766970)) % m.groups // "mvip"
	m.scratch = m.scratch[:0]
	for i := 0; i < d.N; i++ {
		if uint64(hash2(d.Key(i), 0x6d766970))%m.groups == gid {
			m.scratch = append(m.scratch, i)
		}
	}
	if len(m.scratch) == 0 {
		for i := 0; i < d.N; i++ {
			m.scratch = append(m.scratch, i)
		}
	}
	return m.scratch
}

// leastLoad is the strict-< argmin over the bucket.
func (m *MVIP) leastLoad(d Decision) int {
	members := m.bucket(d)
	best, bestLoad := -1, 0.0
	for _, i := range members {
		if l := d.probe(i, m.stats); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

func (m *MVIP) VIPSwitch(d Decision) int { return m.leastLoad(d) }

// VIPForRIP spreads by group size first — the VIP with the fewest
// RIPs — falling back to load when the caller offers no group metric.
func (m *MVIP) VIPForRIP(d Decision) int {
	if d.Group == nil {
		return m.leastLoad(d)
	}
	members := m.bucket(d)
	best, bestN := -1, 0
	for _, i := range members {
		if n := d.Group(i); best < 0 || n < bestN {
			best, bestN = i, n
		}
	}
	return best
}

func (m *MVIP) TransferTarget(d Decision) int { return m.leastLoad(d) }
func (m *MVIP) DeployPod(d Decision) int      { return m.leastLoad(d) }
func (m *MVIP) DonorPod(d Decision) int       { return m.leastLoad(d) }
