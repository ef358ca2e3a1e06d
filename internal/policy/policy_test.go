package policy

import (
	"math/rand"
	"testing"
)

// synthDecision builds a Decision over n synthetic candidates whose
// keys and loads derive deterministically from (seq, n).
func synthDecision(seq int64, n int) Decision {
	rng := rand.New(rand.NewSource(seq))
	keys := make([]uint64, n)
	loads := make([]float64, n)
	groups := make([]int, n)
	for i := range keys {
		keys[i] = uint64(i)*7 + 3
		loads[i] = rng.Float64()
		groups[i] = rng.Intn(10)
	}
	return Decision{
		Actor: uint64(seq * 11),
		N:     n,
		Key:   func(i int) uint64 { return keys[i] },
		Load:  func(i int) float64 { return loads[i] },
		Group: func(i int) int { return groups[i] },
	}
}

// drive runs one policy through a fixed synthetic decision sequence
// and returns every pick, exercising all five decision sites.
func drive(b Bundle, decisions int) []int {
	var picks []int
	for s := 0; s < decisions; s++ {
		d := synthDecision(int64(s), 3+s%13)
		picks = append(picks,
			b.Placement.VIPSwitch(d),
			b.Placement.VIPForRIP(d),
			b.Placement.TransferTarget(d),
			b.Steering.DeployPod(d),
			b.Steering.DonorPod(d))
	}
	return picks
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"cached", "greedy", "mvip", "omniscient", "power-of-2", "round-robin", "straw2"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	if _, err := New("no-such-policy", 1); err == nil {
		t.Error("unknown policy accepted")
	}
	b, err := New("", 1)
	if err != nil || b.Name != DefaultName {
		t.Errorf("empty name resolved to %q (%v), want %q", b.Name, err, DefaultName)
	}
}

// Every policy must be a pure function of (seed, decision sequence):
// two instances driven through the same sequence pick identically.
func TestPolicyDeterminism(t *testing.T) {
	for _, name := range Names() {
		a := drive(factories[name](42), 200)
		b := drive(factories[name](42), 200)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: pick %d diverged: %d vs %d", name, i, a[i], b[i])
			}
		}
	}
}

// Every pick must be a valid candidate index.
func TestPolicyPicksInRange(t *testing.T) {
	for _, name := range Names() {
		b := factories[name](7)
		for s := 0; s < 100; s++ {
			n := 1 + s%9
			d := synthDecision(int64(s), n)
			for site, pick := range []int{
				b.Placement.VIPSwitch(d),
				b.Placement.VIPForRIP(d),
				b.Placement.TransferTarget(d),
				b.Steering.DeployPod(d),
				b.Steering.DonorPod(d),
			} {
				if pick < 0 || pick >= n {
					t.Fatalf("%s site %d: pick %d out of [0,%d)", name, site, pick, n)
				}
			}
		}
	}
}

// Greedy must replicate the historical comparison structure: strict
// argmin for the plain scans, and the epsilon near-tie group break for
// VIPForRIP.
func TestGreedyComparisons(t *testing.T) {
	g := NewGreedy(nil)
	loads := []float64{0.5, 0.2, 0.2, 0.9}
	d := Decision{N: 4, Load: func(i int) float64 { return loads[i] }}
	if got := g.VIPSwitch(d); got != 1 {
		t.Errorf("VIPSwitch argmin = %d, want 1 (first of the tied minima)", got)
	}
	// Near-tie within 1e-9: group decides.
	loads2 := []float64{0.3, 0.3 + 5e-10, 0.3 + 2e-9}
	groups := []int{5, 2, 0}
	d2 := Decision{
		N:     3,
		Load:  func(i int) float64 { return loads2[i] },
		Group: func(i int) int { return groups[i] },
	}
	if got := g.VIPForRIP(d2); got != 1 {
		t.Errorf("VIPForRIP = %d, want 1 (near-tie broken by smaller group)", got)
	}
}

// The probe accounting that E18 tabulates: stateless policies probe
// nothing, omniscient probes everything, cached stays within budget.
func TestProbeAccounting(t *testing.T) {
	const decisions = 50
	totalCands := 0
	for s := 0; s < decisions; s++ {
		totalCands += 3 + s%13
	}
	cases := []struct {
		name     string
		min, max int64
	}{
		{"round-robin", 0, 0},
		{"straw2", 0, 0},
		{"omniscient", int64(totalCands) * 5, int64(totalCands) * 5},
		{"greedy", int64(totalCands) * 5, int64(totalCands) * 5},
		{"cached", 1, int64(decisions) * 5 * DefaultCachedProbes},
		{"power-of-2", 1, int64(decisions) * 5 * DefaultPowerChoices},
	}
	for _, c := range cases {
		b := factories[c.name](3)
		drive(b, decisions)
		if got := b.Stats.Probes; got < c.min || got > c.max {
			t.Errorf("%s: probes = %d, want in [%d, %d]", c.name, got, c.min, c.max)
		}
	}
}

// MVIP concentrates an actor's choices: with stable candidates, the
// same actor must keep choosing within one hash bucket.
func TestMVIPGroupsStable(t *testing.T) {
	m := NewMVIP(4, nil)
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
	}
	d := Decision{
		Actor: 99,
		N:     16,
		Key:   func(i int) uint64 { return keys[i] },
		Load:  func(i int) float64 { return float64(i) },
	}
	first := m.VIPSwitch(d)
	gid := uint64(hash2(keys[first], 0x6d766970)) % 4
	for trial := 0; trial < 10; trial++ {
		got := m.VIPSwitch(d)
		if uint64(hash2(keys[got], 0x6d766970))%4 != gid {
			t.Fatalf("actor hopped groups: candidate %d", got)
		}
	}
}

// Straw2 with distinct actors spreads across candidates rather than
// piling on one.
func TestStraw2Spreads(t *testing.T) {
	s := NewStraw2()
	keys := []uint64{10, 20, 30, 40}
	counts := make([]int, 4)
	for actor := uint64(0); actor < 400; actor++ {
		d := Decision{
			Actor: actor,
			N:     4,
			Key:   func(i int) uint64 { return keys[i] },
		}
		counts[s.VIPSwitch(d)]++
	}
	for i, c := range counts {
		if c < 50 || c > 150 {
			t.Errorf("candidate %d drew %d/400 actors; hash is not spreading", i, c)
		}
	}
}
