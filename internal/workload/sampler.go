package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Sampler draws indices from a fixed weight vector in O(1) per draw via
// Vose's alias method: it pays O(n) once at construction and a single
// uniform draw per pick thereafter, so a million-app request stream can
// pick an app per arrival without an O(n) scan.
//
// Determinism: construction is a pure function of the weight vector
// (the small/large worklists are filled in ascending index order and
// popped LIFO), and Pick consumes exactly one rng.Float64() per draw,
// so identical seeds yield byte-identical index streams.
type Sampler struct {
	// prob[i] is the acceptance threshold of column i in [0,1]; alias[i]
	// is the index that receives the rejected mass.
	prob  []float64
	alias []int32
}

// NewSampler builds the alias table for the (not necessarily
// normalized) weight vector. Empty vectors, negative weights, and
// non-finite weights panic, naming the offending index: a single NaN
// would otherwise poison every column's threshold and silently bias the
// draws. An all-zero vector degenerates to uniform.
func NewSampler(weights []float64) *Sampler {
	if len(weights) == 0 {
		panic("workload: NewSampler with empty weights")
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("workload: negative weight %v at index %d", w, i))
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("workload: non-finite weight %v at index %d", w, i))
		}
		total += w
	}
	n := len(weights)
	s := &Sampler{prob: make([]float64, n), alias: make([]int32, n)}
	if total <= 0 {
		for i := range s.prob {
			s.prob[i] = 1
			s.alias[i] = int32(i)
		}
		return s
	}
	// Scale so the mean column mass is 1, then pair each under-full
	// ("small") column with an over-full ("large") donor. Worklists are
	// plain LIFO stacks filled in ascending index order: deterministic,
	// and the classic numerically robust formulation (the residue of a
	// donor is re-classified after every pairing).
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Leftovers in either list hold (up to rounding) exactly mass 1.
	for _, i := range large {
		s.prob[i] = 1
		s.alias[i] = i
	}
	for _, i := range small {
		s.prob[i] = 1
		s.alias[i] = i
	}
	return s
}

// Pick draws one index, consuming exactly one rng.Float64(). The single
// uniform supplies both the column (integer part) and the accept test
// (fractional part) — the standard one-draw alias formulation.
func (s *Sampler) Pick(rng *rand.Rand) int {
	u := rng.Float64() * float64(len(s.prob))
	i := int(u)
	if u-float64(i) < s.prob[i] {
		return i
	}
	return int(s.alias[i])
}
