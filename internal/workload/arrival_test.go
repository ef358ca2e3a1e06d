package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawArrivals collects all arrivals of profile p in [0, horizon) for a
// fixed seed.
func drawArrivals(p Profile, seed int64, horizon float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	t := 0.0
	for {
		t = NextArrival(p, t, rng)
		if t >= horizon || math.IsInf(t, 1) {
			return out
		}
		out = append(out, t)
	}
}

// TestNextArrivalTracksRateAt is the empirical-rate property test: the
// number of arrivals in a window must match the integral of RateAt over
// that window within sampling tolerance, for constant, diurnal, and
// flash-crowd profiles.
func TestNextArrivalTracksRateAt(t *testing.T) {
	cases := []struct {
		name    string
		p       Profile
		horizon float64
		window  float64
	}{
		{"constant", Constant(20), 400, 50},
		{"diurnal", Diurnal{Base: 30, Amplitude: 20, Period: 200}, 600, 25},
		{"flash", FlashCrowd{Base: 10, Peak: 120, Start: 100, Ramp: 40, Hold: 80}, 400, 20},
		{"flash-step", FlashCrowd{Base: 10, Peak: 120, Start: 100, Ramp: 0, Hold: 100}, 400, 20},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Average several seeds so the per-window tolerance can be
			// tight without flakiness; the seeds are fixed, so this
			// test is fully deterministic.
			nWindows := int(c.horizon / c.window)
			counts := make([]float64, nWindows)
			seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
			for _, seed := range seeds {
				for _, a := range drawArrivals(c.p, seed+int64(ci)*100, c.horizon) {
					w := int(a / c.window)
					if w >= 0 && w < nWindows {
						counts[w]++
					}
				}
			}
			for w := 0; w < nWindows; w++ {
				// Expected count = ∫ RateAt over the window, estimated
				// by midpoint-rule sampling (profiles are piecewise
				// smooth; 100 samples per window is plenty).
				var expect float64
				const samples = 100
				dt := c.window / samples
				for s := 0; s < samples; s++ {
					expect += c.p.RateAt(float64(w)*c.window+(float64(s)+0.5)*dt) * dt
				}
				got := counts[w] / float64(len(seeds))
				// Poisson std dev is sqrt(mean); averaged over k seeds
				// it shrinks by sqrt(k). Allow 5 sigma plus a small
				// absolute slack for ramp-edge discretization.
				tol := 5*math.Sqrt(math.Max(expect, 1)/float64(len(seeds))) + 2
				if math.Abs(got-expect) > tol {
					t.Errorf("window %d [%v,%v): mean count %v, expected %v ± %v",
						w, float64(w)*c.window, float64(w+1)*c.window, got, expect, tol)
				}
			}
		})
	}
}

// TestNextArrivalRespectsMaxRate checks the thinning contract from the
// consumer side: no accepted arrival may land at a time where the
// profile claims a rate above its own MaxRate bound — if it did, the
// thinning acceptance probability RateAt/MaxRate would exceed 1 and the
// sampled process would be rate-clipped, not Poisson(λ(t)).
func TestNextArrivalRespectsMaxRate(t *testing.T) {
	profiles := []Profile{
		Constant(15),
		Diurnal{Base: 40, Amplitude: 35, Period: 120, Phase: 1},
		FlashCrowd{Base: 5, Peak: 200, Start: 50, Ramp: 25, Hold: 60},
		Step{Before: 5, After: 80, At: 100},
	}
	for pi, p := range profiles {
		max := p.MaxRate()
		for _, a := range drawArrivals(p, int64(31+pi), 500) {
			if r := p.RateAt(a); r > max {
				t.Fatalf("profile %d: arrival at t=%v has RateAt %v > MaxRate %v", pi, a, r, max)
			}
		}
	}
}

// TestNextArrivalDeterministic: identical seeds must yield byte-identical
// arrival streams — the property every experiment's determinism test
// ultimately rests on.
func TestNextArrivalDeterministic(t *testing.T) {
	p := FlashCrowd{Base: 20, Peak: 90, Start: 60, Ramp: 30, Hold: 40}
	render := func(seed int64) string {
		s := ""
		for _, a := range drawArrivals(p, seed, 300) {
			// %x of the float64 bits: byte-exact, no formatting slack.
			s += fmt.Sprintf("%x;", math.Float64bits(a))
		}
		return s
	}
	if a, b := render(77), render(77); a != b {
		t.Fatal("identical seeds produced different arrival streams")
	}
	if a, b := render(77), render(78); a == b {
		t.Fatal("different seeds produced identical arrival streams (seed ignored?)")
	}
}
