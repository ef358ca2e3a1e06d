package workload

import (
	"math"
	"testing"
)

// TestFlashCrowdZeroRampFinite pins the Ramp == 0 boundary: a zero ramp
// must degenerate to an instantaneous step with every rate finite —
// never a 0/0 NaN from the ramp interpolation — and the profile must
// still respect its own MaxRate everywhere.
func TestFlashCrowdZeroRampFinite(t *testing.T) {
	f := FlashCrowd{Base: 10, Peak: 100, Start: 50, Ramp: 0, Hold: 20}
	for _, tt := range []float64{0, 49.999, 50, 50.000001, 60, 69.999, 70, 70.1, 1000} {
		got := f.RateAt(tt)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("RateAt(%v) = %v with Ramp=0, want finite", tt, got)
		}
		if got > f.MaxRate() {
			t.Fatalf("RateAt(%v) = %v exceeds MaxRate %v", tt, got, f.MaxRate())
		}
	}
	// The step shape itself: base before, peak during hold, base after.
	if got := f.RateAt(49); got != 10 {
		t.Errorf("before start: %v, want 10", got)
	}
	if got := f.RateAt(50); got != 100 {
		t.Errorf("at start: %v, want 100 (instantaneous step)", got)
	}
	if got := f.RateAt(60); got != 100 {
		t.Errorf("mid hold: %v, want 100", got)
	}
	if got := f.RateAt(71); got != 10 {
		t.Errorf("after hold: %v, want 10", got)
	}
	// Zero Ramp AND zero Hold collapses to nothing but base.
	spike := FlashCrowd{Base: 3, Peak: 9, Start: 5, Ramp: 0, Hold: 0}
	for _, tt := range []float64{0, 4.9, 5, 5.1, 100} {
		if got := spike.RateAt(tt); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("degenerate spike RateAt(%v) = %v", tt, got)
		}
	}
}

func TestFlashCrowdValidate(t *testing.T) {
	good := FlashCrowd{Base: 1, Peak: 10, Start: 100, Ramp: 0, Hold: 50}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := []FlashCrowd{
		{Base: 1, Peak: 10, Start: 0, Ramp: -1, Hold: 0},
		{Base: 1, Peak: 10, Start: 0, Ramp: 0, Hold: -5},
		{Base: math.NaN(), Peak: 10, Start: 0, Ramp: 1, Hold: 1},
		{Base: 1, Peak: math.Inf(1), Start: 0, Ramp: 1, Hold: 1},
		{Base: -1, Peak: 10, Start: 0, Ramp: 1, Hold: 1},
		{Base: 1, Peak: 10, Start: math.NaN(), Ramp: 1, Hold: 1},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: %+v validated, want error", i, f)
		}
	}
}

// TestDiurnalValidate pins the Period == 0 NaN: Sin(2πt/0) is Sin(+Inf)
// = NaN, the `v < 0` clamp cannot catch it, and RateAt returns NaN.
func TestDiurnalValidate(t *testing.T) {
	// Demonstrate the hazard Validate guards against.
	d0 := Diurnal{Base: 10, Amplitude: 5, Period: 0}
	if got := d0.RateAt(1); !math.IsNaN(got) {
		t.Logf("RateAt with Period=0 = %v (hazard shape changed?)", got)
	}
	if err := d0.Validate(); err == nil {
		t.Error("Period=0 validated, want error")
	}
	bad := []Diurnal{
		{Base: 10, Amplitude: 5, Period: -60},
		{Base: 10, Amplitude: math.NaN(), Period: 60},
		{Base: math.Inf(1), Amplitude: 5, Period: 60},
		{Base: -1, Amplitude: 0, Period: 60},
		{Base: 10, Amplitude: 5, Period: 60, Phase: math.NaN()},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: %+v validated, want error", i, d)
		}
	}
	if err := (Diurnal{Base: 10, Amplitude: 5, Period: 86400}).Validate(); err != nil {
		t.Errorf("valid diurnal rejected: %v", err)
	}
}

func TestValidateProfile(t *testing.T) {
	if err := ValidateProfile(nil); err == nil {
		t.Error("nil profile validated")
	}
	if err := ValidateProfile(Constant(3)); err != nil {
		t.Errorf("constant rejected: %v", err)
	}
	if err := ValidateProfile(Constant(math.NaN())); err == nil {
		t.Error("NaN constant validated")
	}
	if err := ValidateProfile(FlashCrowd{Base: 1, Peak: 2, Ramp: -1}); err == nil {
		t.Error("invalid flash crowd validated through ValidateProfile")
	}
}
