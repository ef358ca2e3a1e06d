// Package metrics provides the measurement primitives shared by the
// simulator, the experiment harness, and the benchmarks: counters,
// time-weighted gauges (for utilization averaged over simulated time),
// sample histograms with percentiles, and time series.
package metrics

import (
	"fmt"
	"math"
	"slices"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n int64
}

// Add increments the counter by d, which must be non-negative.
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.n += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// Gauge tracks a piecewise-constant value over simulated time and can
// report its time-weighted average and final value.
type Gauge struct {
	started  bool
	startT   float64
	lastT    float64
	lastV    float64
	weighted float64 // integral of value over time
}

// Set records that the gauge took value v at time t. Times must be
// non-decreasing.
func (g *Gauge) Set(t, v float64) {
	if !g.started {
		g.started = true
		g.startT, g.lastT, g.lastV = t, t, v
		return
	}
	if t < g.lastT {
		panic(fmt.Sprintf("metrics: Gauge.Set time went backwards: %v < %v", t, g.lastT))
	}
	g.weighted += g.lastV * (t - g.lastT)
	g.lastT, g.lastV = t, v
}

// Value returns the most recently set value.
func (g *Gauge) Value() float64 { return g.lastV }

// Average returns the time-weighted average of the gauge from its first
// Set up to time t. It returns the last value if no time has elapsed.
func (g *Gauge) Average(t float64) float64 {
	if !g.started || t <= g.startT {
		return g.lastV
	}
	w := g.weighted
	if t > g.lastT {
		w += g.lastV * (t - g.lastT)
	}
	return w / (t - g.startT)
}

// Sample is an unordered collection of observations supporting summary
// statistics and quantiles. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// Observe records one observation.
func (s *Sample) Observe(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
	s.sum += v
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations in insertion order.
func (s *Sample) Values() []float64 {
	return append([]float64(nil), s.xs...)
}

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// Stddev returns the population standard deviation, or 0 for fewer than
// two observations.
func (s *Sample) Stddev() float64 {
	if len(s.xs) < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.xs)))
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between order statistics, or 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	s.sort()
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

func (s *Sample) sort() {
	if !s.sorted {
		slices.Sort(s.xs)
		s.sorted = true
	}
}

// Point is one time-series observation.
type Point struct {
	T float64
	V float64
}

// Series records (time, value) pairs in observation order.
type Series struct {
	pts []Point
}

// Record appends an observation.
func (s *Series) Record(t, v float64) { s.pts = append(s.pts, Point{t, v}) }

// Points returns the recorded points. The returned slice is owned by the
// series and must not be modified.
func (s *Series) Points() []Point { return s.pts }

// Imbalance summarizes how uneven a load vector is: the ratio of the
// maximum element to the mean. 1.0 is perfectly balanced. It returns 0
// for an empty or all-zero vector.
func Imbalance(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, max float64
	for _, v := range loads {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(loads)))
}

// CoefficientOfVariation returns stddev/mean of the vector, a scale-free
// imbalance measure. It returns 0 for an empty or zero-mean vector.
func CoefficientOfVariation(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var s Sample
	for _, v := range loads {
		s.Observe(v)
	}
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.Stddev() / m
}
