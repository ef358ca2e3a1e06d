package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(5, 1)
	var sum float64
	for i, v := range w {
		sum += v
		if i > 0 && v > w[i-1] {
			t.Errorf("weights not decreasing at %d: %v", i, w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("sum = %v, want 1", sum)
	}
	// Exponent 1: w0/w1 = 2.
	if math.Abs(w[0]/w[1]-2) > 1e-12 {
		t.Errorf("w0/w1 = %v, want 2", w[0]/w[1])
	}
	// s = 0 is uniform.
	u := ZipfWeights(4, 0)
	for _, v := range u {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("uniform weights = %v", u)
		}
	}
}

func TestZipfWeightsPanics(t *testing.T) {
	for _, c := range []struct {
		n int
		s float64
	}{{0, 1}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ZipfWeights(%d,%v) did not panic", c.n, c.s)
				}
			}()
			ZipfWeights(c.n, c.s)
		}()
	}
}

func TestConstantProfile(t *testing.T) {
	p := Constant(5)
	if p.RateAt(0) != 5 || p.RateAt(100) != 5 || p.MaxRate() != 5 {
		t.Error("Constant profile wrong")
	}
}

func TestFlashCrowdShape(t *testing.T) {
	f := FlashCrowd{Base: 10, Peak: 100, Start: 100, Ramp: 50, Hold: 200}
	cases := []struct {
		t, want float64
	}{
		{0, 10},     // before
		{99, 10},    // just before
		{125, 55},   // mid ramp-up
		{150, 100},  // peak start
		{250, 100},  // holding
		{350, 100},  // just at hold end
		{375, 55},   // mid ramp-down
		{400, 10},   // back to base
		{10000, 10}, // long after
	}
	for _, c := range cases {
		if got := f.RateAt(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("RateAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if f.MaxRate() != 100 {
		t.Errorf("MaxRate = %v", f.MaxRate())
	}
}

func TestDiurnal(t *testing.T) {
	d := Diurnal{Base: 10, Amplitude: 5, Period: 86400}
	if got := d.RateAt(0); math.Abs(got-10) > 1e-9 {
		t.Errorf("RateAt(0) = %v", got)
	}
	if got := d.RateAt(86400 / 4); math.Abs(got-15) > 1e-9 {
		t.Errorf("RateAt(quarter) = %v, want 15", got)
	}
	if d.MaxRate() != 15 {
		t.Errorf("MaxRate = %v", d.MaxRate())
	}
	// Clamped at zero.
	neg := Diurnal{Base: 1, Amplitude: 5, Period: 100}
	if got := neg.RateAt(75); got != 0 {
		t.Errorf("negative clamp = %v", got)
	}
}

func TestStep(t *testing.T) {
	s := Step{Before: 2, After: 8, At: 10}
	if s.RateAt(9.9) != 2 || s.RateAt(10) != 8 || s.MaxRate() != 8 {
		t.Error("Step wrong")
	}
}

func TestSessionTemplate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	st := SessionTemplate{MeanDuration: 30, Mbps: 2, CPU: 0.01}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		s := st.Draw(rng)
		if s.Mbps != 2 || s.CPU != 0.01 {
			t.Fatal("fixed fields wrong")
		}
		if s.Duration < 0 {
			t.Fatal("negative duration")
		}
		sum += s.Duration
	}
	mean := sum / n
	if math.Abs(mean-30) > 1.5 {
		t.Errorf("mean duration = %v, want ≈30", mean)
	}
}

func TestNextArrivalHomogeneousRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Constant(10)
	var t0 float64
	const n = 20000
	var last float64
	for i := 0; i < n; i++ {
		t1 := NextArrival(p, last, rng)
		if t1 <= last {
			t.Fatal("arrival did not advance")
		}
		last = t1
	}
	rate := n / (last - t0)
	if math.Abs(rate-10) > 0.5 {
		t.Errorf("empirical rate = %v, want ≈10", rate)
	}
}

func TestNextArrivalThinningTracksProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Rate 100 during [0,10), rate 5 afterwards.
	p := Step{Before: 100, After: 5, At: 10}
	early, late := 0, 0
	tt := 0.0
	for {
		tt = NextArrival(p, tt, rng)
		if tt > 50 {
			break
		}
		if tt < 10 {
			early++
		} else {
			late++
		}
	}
	// Expect ≈1000 early, ≈200 late.
	if early < 800 || early > 1200 {
		t.Errorf("early arrivals = %d, want ≈1000", early)
	}
	if late < 120 || late > 280 {
		t.Errorf("late arrivals = %d, want ≈200", late)
	}
}

func TestNextArrivalZeroRate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if got := NextArrival(Constant(0), 5, rng); !math.IsInf(got, 1) {
		t.Errorf("zero-rate arrival = %v, want +Inf", got)
	}
}

func TestLognormalDemandMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var vals []float64
	for i := 0; i < 10001; i++ {
		v := LognormalDemand(1.0, rng)
		if v <= 0 {
			t.Fatal("non-positive demand")
		}
		vals = append(vals, v)
	}
	// Median should be ≈1.
	n := 0
	for _, v := range vals {
		if v < 1 {
			n++
		}
	}
	frac := float64(n) / float64(len(vals))
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("fraction below 1 = %v, want ≈0.5", frac)
	}
}

// Property: ZipfWeights always sums to 1 and is non-increasing.
func TestPropertyZipf(t *testing.T) {
	f := func(n uint16, s10 uint8) bool {
		n2 := int(n%500) + 1
		s := float64(s10%30) / 10
		w := ZipfWeights(n2, s)
		var sum float64
		for i, v := range w {
			sum += v
			if i > 0 && v > w[i-1]+1e-15 {
				return false
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Error(err)
	}
}

// Property: NextArrival is strictly increasing for positive rates.
func TestPropertyArrivalsAdvance(t *testing.T) {
	f := func(seed int64, rate10 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := float64(rate10%50)/10 + 0.1
		p := Constant(rate)
		last := 0.0
		for i := 0; i < 50; i++ {
			next := NextArrival(p, last, rng)
			if next <= last {
				return false
			}
			last = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}
