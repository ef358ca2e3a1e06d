package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSamplerDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewSampler([]float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[s.Pick(rng)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	if frac := float64(counts[2]) / n; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("index 2 fraction = %v", frac)
	}
	if len(s.prob) != 3 {
		t.Errorf("sampler draws from %d indices, want 3", len(s.prob))
	}
}

func TestSamplerZeroTotalUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := NewSampler([]float64{0, 0})
	c0 := 0
	for i := 0; i < 1000; i++ {
		if s.Pick(rng) == 0 {
			c0++
		}
	}
	if c0 < 400 || c0 > 600 {
		t.Errorf("uniform fallback skewed: %d", c0)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	w := ZipfWeights(37, 1.1)
	a, b := NewSampler(w), NewSampler(w)
	ra := rand.New(rand.NewSource(42))
	rb := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		if x, y := a.Pick(ra), b.Pick(rb); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
}

// Pick must consume exactly one uniform per draw — the engine's
// determinism contract depends on a fixed RNG consumption rate.
func TestSamplerConsumesOneDraw(t *testing.T) {
	s := NewSampler([]float64{2, 1, 5, 0.5})
	ra := rand.New(rand.NewSource(9))
	rb := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		s.Pick(ra)
		rb.Float64()
	}
	if ra.Int63() != rb.Int63() {
		t.Error("Pick consumed a different number of draws than one Float64")
	}
}

// TestSamplerPanics pins the validation contract: bad weight vectors
// panic, and the message names the offending index so the caller can
// find the poisoned entry in a long vector.
func TestSamplerPanics(t *testing.T) {
	for _, c := range []struct {
		name    string
		w       []float64
		wantIdx string
	}{
		{"empty", nil, "empty"},
		{"negative", []float64{1, -1}, "index 1"},
		{"nan", []float64{1, 2, math.NaN(), 4}, "index 2"},
		{"inf", []float64{math.Inf(1), 1}, "index 0"},
		{"-inf", []float64{1, 1, 1, math.Inf(-1)}, "index 3"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s weights did not panic", c.name)
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, c.wantIdx) {
					t.Errorf("%s: panic %q does not name %s", c.name, r, c.wantIdx)
				}
			}()
			NewSampler(c.w)
		}()
	}
}

// Property: the alias table preserves the weight vector exactly —
// summing each column's retained and donated mass reconstructs the
// normalized weights, so the sampler is unbiased by construction, not
// just empirically.
func TestPropertySamplerMassConservation(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%20) + 1
		w := make([]float64, n)
		var total float64
		for i := range w {
			if rng.Intn(4) == 0 {
				w[i] = 0
			} else {
				w[i] = rng.Float64() * 10
			}
			total += w[i]
		}
		if total == 0 {
			w[0], total = 1, 1
		}
		s := NewSampler(w)
		mass := make([]float64, n)
		for i := range s.prob {
			mass[i] += s.prob[i]
			mass[s.alias[i]] += 1 - s.prob[i]
		}
		for i := range w {
			if math.Abs(mass[i]/float64(n)-w[i]/total) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

// Property: Pick always returns an index in range, for adversarial
// uniform values near column boundaries.
func TestPropertySamplerInRange(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%15) + 1
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		s := NewSampler(w)
		for i := 0; i < 200; i++ {
			if got := s.Pick(rng); got < 0 || got >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSamplerPick(b *testing.B) {
	s := NewSampler(ZipfWeights(100000, 1.0))
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Pick(rng)
	}
}
