// Package workload generates the client demand that drives the
// simulations: Zipf-distributed application popularity (Internet
// application demand is heavy-tailed), Poisson session arrivals with
// time-varying rates (flash crowds, diurnal cycles), and session resource
// templates (duration, bandwidth, CPU). All generators are deterministic
// given a seeded *rand.Rand.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// ZipfWeights returns n weights following a Zipf distribution with
// exponent s (weight of rank i ∝ 1/(i+1)^s), normalized to sum to 1.
// s = 0 yields a uniform distribution.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		panic("workload: ZipfWeights needs n > 0")
	}
	if s < 0 {
		panic("workload: ZipfWeights needs s >= 0")
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Profile is a time-varying demand rate λ(t) ≥ 0 (sessions per second,
// or any other rate unit the caller chooses).
type Profile interface {
	// RateAt returns the instantaneous rate at simulated time t.
	RateAt(t float64) float64
	// MaxRate returns an upper bound on RateAt over all t, used for
	// Poisson thinning.
	MaxRate() float64
}

// Constant is a constant-rate profile.
type Constant float64

// RateAt implements Profile.
func (c Constant) RateAt(float64) float64 { return float64(c) }

// MaxRate implements Profile.
func (c Constant) MaxRate() float64 { return float64(c) }

// FlashCrowd is the paper's motivating scenario: demand that is "hard to
// predict in advance". The rate ramps linearly from Base to Peak over
// [Start, Start+Ramp], holds at Peak for Hold seconds, then ramps back
// down over Ramp seconds.
type FlashCrowd struct {
	Base, Peak        float64
	Start, Ramp, Hold float64
}

// RateAt implements Profile. A zero Ramp degenerates to an
// instantaneous step at the window edges: the ramp branches are entered
// only when Ramp > 0, so the `(t-Start)/Ramp` fractions can never
// divide by zero (which would return NaN at t == Start and poison
// NextArrival's thinning comparison — every accept test would be false
// and arrival generation would silently stop).
func (f FlashCrowd) RateAt(t float64) float64 {
	switch {
	case t < f.Start:
		return f.Base
	case f.Ramp > 0 && t < f.Start+f.Ramp:
		frac := (t - f.Start) / f.Ramp
		return f.Base + frac*(f.Peak-f.Base)
	case t < f.Start+f.Ramp+f.Hold:
		return f.Peak
	case f.Ramp > 0 && t < f.Start+2*f.Ramp+f.Hold:
		frac := (t - f.Start - f.Ramp - f.Hold) / f.Ramp
		return f.Peak - frac*(f.Peak-f.Base)
	default:
		return f.Base
	}
}

// MaxRate implements Profile.
func (f FlashCrowd) MaxRate() float64 { return math.Max(f.Base, f.Peak) }

// Validate rejects configurations whose RateAt would misbehave:
// negative Ramp or Hold (the piecewise window boundaries go backwards
// in time and branches overlap) and non-finite fields (NaN propagates
// into every rate, Inf breaks the thinning bound).
func (f FlashCrowd) Validate() error {
	for _, v := range [...]struct {
		name string
		v    float64
	}{{"Base", f.Base}, {"Peak", f.Peak}, {"Start", f.Start}, {"Ramp", f.Ramp}, {"Hold", f.Hold}} {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("workload: FlashCrowd.%s is not finite: %v", v.name, v.v)
		}
	}
	if f.Base < 0 || f.Peak < 0 {
		return fmt.Errorf("workload: FlashCrowd rates must be >= 0 (Base %v, Peak %v)", f.Base, f.Peak)
	}
	if f.Ramp < 0 {
		return fmt.Errorf("workload: FlashCrowd.Ramp must be >= 0, got %v", f.Ramp)
	}
	if f.Hold < 0 {
		return fmt.Errorf("workload: FlashCrowd.Hold must be >= 0, got %v", f.Hold)
	}
	return nil
}

// Diurnal is a sinusoidal day/night cycle: Base + Amplitude·sin(2πt/Period
// + Phase), clamped at 0.
type Diurnal struct {
	Base, Amplitude float64
	Period, Phase   float64
}

// RateAt implements Profile.
func (d Diurnal) RateAt(t float64) float64 {
	v := d.Base + d.Amplitude*math.Sin(2*math.Pi*t/d.Period+d.Phase)
	if v < 0 {
		return 0
	}
	return v
}

// MaxRate implements Profile.
func (d Diurnal) MaxRate() float64 { return d.Base + math.Abs(d.Amplitude) }

// Validate rejects configurations whose RateAt would be NaN: a zero (or
// negative, or non-finite) Period makes 2πt/Period divide by zero, and
// Sin(±Inf) is NaN — which the `v < 0` clamp cannot catch, so RateAt
// would return NaN and stall NextArrival's thinning loop.
func (d Diurnal) Validate() error {
	for _, v := range [...]struct {
		name string
		v    float64
	}{{"Base", d.Base}, {"Amplitude", d.Amplitude}, {"Period", d.Period}, {"Phase", d.Phase}} {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("workload: Diurnal.%s is not finite: %v", v.name, v.v)
		}
	}
	if d.Period <= 0 {
		return fmt.Errorf("workload: Diurnal.Period must be > 0, got %v", d.Period)
	}
	if d.Base < 0 {
		return fmt.Errorf("workload: Diurnal.Base must be >= 0, got %v", d.Base)
	}
	return nil
}

// Step jumps from Before to After at time At — the step-response input
// used by the knob-agility experiment (E8).
type Step struct {
	Before, After float64
	At            float64
}

// RateAt implements Profile.
func (s Step) RateAt(t float64) float64 {
	if t < s.At {
		return s.Before
	}
	return s.After
}

// MaxRate implements Profile.
func (s Step) MaxRate() float64 { return math.Max(s.Before, s.After) }

// ValidateProfile validates a profile when its concrete type provides a
// Validate method (FlashCrowd, Diurnal, …) and otherwise checks
// the generic contract: MaxRate must be finite and non-negative.
// Callers that accept externally configured profiles (the request
// engine, CLI flags) run this once up front so a bad profile fails
// loudly instead of silently generating zero or biased arrivals.
func ValidateProfile(p Profile) error {
	if p == nil {
		return fmt.Errorf("workload: nil profile")
	}
	if v, ok := p.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	max := p.MaxRate()
	if math.IsNaN(max) || math.IsInf(max, 0) || max < 0 {
		return fmt.Errorf("workload: profile MaxRate %v must be finite and >= 0", max)
	}
	return nil
}

// Session describes one client session's resource footprint.
type Session struct {
	Duration float64 // seconds
	Mbps     float64 // bandwidth while active
	CPU      float64 // cores while active
}

// SessionTemplate draws sessions with exponentially distributed durations
// around MeanDuration and fixed per-session bandwidth/CPU.
type SessionTemplate struct {
	MeanDuration float64
	Mbps         float64
	CPU          float64
}

// Draw samples one session.
func (st SessionTemplate) Draw(rng *rand.Rand) Session {
	return Session{
		Duration: rng.ExpFloat64() * st.MeanDuration,
		Mbps:     st.Mbps,
		CPU:      st.CPU,
	}
}

// NextArrival samples the next arrival time of a non-homogeneous Poisson
// process with rate profile p, starting from time t, using thinning
// (Lewis & Shedler). It returns +Inf if the profile's MaxRate is 0.
func NextArrival(p Profile, t float64, rng *rand.Rand) float64 {
	lambdaMax := p.MaxRate()
	if lambdaMax <= 0 {
		return math.Inf(1)
	}
	for i := 0; i < 1_000_000; i++ {
		t += rng.ExpFloat64() / lambdaMax
		if rng.Float64()*lambdaMax <= p.RateAt(t) {
			return t
		}
	}
	return math.Inf(1) // rate effectively zero everywhere we looked
}

// LognormalDemand draws a demand multiplier with median 1 and the given
// sigma — the heavy-tailed per-application demand model used by the
// statistical-multiplexing experiment (E9).
func LognormalDemand(sigma float64, rng *rand.Rand) float64 {
	return math.Exp(rng.NormFloat64() * sigma)
}
