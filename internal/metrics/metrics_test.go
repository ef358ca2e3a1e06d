package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9 || math.Abs(a-b) < 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Errorf("Value after Reset = %d, want 0", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestGaugeTimeWeightedAverage(t *testing.T) {
	var g Gauge
	g.Set(0, 10) // 10 for [0,4)
	g.Set(4, 20) // 20 for [4,10)
	want := (10*4 + 20*6) / 10.0
	if got := g.Average(10); !almostEqual(got, want) {
		t.Errorf("Average(10) = %v, want %v", got, want)
	}
	if g.Value() != 20 {
		t.Errorf("Value = %v, want 20", g.Value())
	}
}

func TestGaugeBackwardsTimePanics(t *testing.T) {
	var g Gauge
	g.Set(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("Set with earlier time did not panic")
		}
	}()
	g.Set(4, 2)
}

func TestGaugeAverageBeforeAnyElapsed(t *testing.T) {
	var g Gauge
	g.Set(3, 7)
	if got := g.Average(3); got != 7 {
		t.Errorf("Average with zero elapsed = %v, want 7", got)
	}
}

func TestSampleStats(t *testing.T) {
	var s Sample
	for _, v := range []float64{4, 1, 3, 2, 5} {
		s.Observe(v)
	}
	if s.N() != 5 || s.Sum() != 15 || s.Mean() != 3 {
		t.Errorf("N/Sum/Mean = %d/%v/%v", s.N(), s.Sum(), s.Mean())
	}
	if s.Max() != 5 {
		t.Errorf("Max = %v", s.Max())
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	wantSD := math.Sqrt(2) // population stddev of 1..5
	if got := s.Stddev(); !almostEqual(got, wantSD) {
		t.Errorf("Stddev = %v, want %v", got, wantSD)
	}
}

func TestSampleQuantileInterpolation(t *testing.T) {
	var s Sample
	s.Observe(0)
	s.Observe(10)
	if got := s.Quantile(0.25); !almostEqual(got, 2.5) {
		t.Errorf("q0.25 = %v, want 2.5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Max() != 0 || s.Quantile(0.9) != 0 || s.Stddev() != 0 {
		t.Error("empty sample should return zeros")
	}
}

func TestSampleQuantileOutOfRangePanics(t *testing.T) {
	var s Sample
	s.Observe(1)
	defer func() {
		if recover() == nil {
			t.Error("Quantile(1.5) did not panic")
		}
	}()
	s.Quantile(1.5)
}

func TestSeries(t *testing.T) {
	var s Series
	s.Record(1, 10)
	s.Record(2, 30)
	s.Record(3, 5)
	want := []Point{{1, 10}, {2, 30}, {3, 5}}
	if got := s.Points(); !slices.Equal(got, want) {
		t.Errorf("Points = %v, want %v", got, want)
	}
	var empty Series
	if got := empty.Points(); len(got) != 0 {
		t.Errorf("empty Points = %v", got)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{1, 1, 1, 1}); !almostEqual(got, 1) {
		t.Errorf("balanced Imbalance = %v, want 1", got)
	}
	if got := Imbalance([]float64{4, 0, 0, 0}); !almostEqual(got, 4) {
		t.Errorf("one-hot Imbalance = %v, want 4", got)
	}
	if got := Imbalance(nil); got != 0 {
		t.Errorf("nil Imbalance = %v, want 0", got)
	}
	if got := Imbalance([]float64{0, 0}); got != 0 {
		t.Errorf("zero Imbalance = %v, want 0", got)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if got := CoefficientOfVariation([]float64{5, 5, 5}); got != 0 {
		t.Errorf("uniform CV = %v, want 0", got)
	}
	if got := CoefficientOfVariation(nil); got != 0 {
		t.Errorf("nil CV = %v, want 0", got)
	}
	cv := CoefficientOfVariation([]float64{1, 3})
	if !almostEqual(cv, 0.5) { // mean 2, pop stddev 1
		t.Errorf("CV = %v, want 0.5", cv)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") || !strings.Contains(out, "42") {
		t.Errorf("missing cells: %q", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("rendered %d lines, want 5: %q", len(lines), out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	var b strings.Builder
	tb.RenderMarkdown(&b)
	out := b.String()
	for _, want := range []string{"**demo**", "| name | value |", "|---|---|", "| alpha | 1.5 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestTableJSON(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	data, err := tb.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"title":"demo"`, `"name":"alpha"`, `"value":1.5`, `"columns":["name","value"]`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s: %s", want, s)
		}
	}
	empty := NewTable("")
	if data, err := empty.MarshalJSON(); err != nil || !strings.Contains(string(data), `"rows":[]`) {
		t.Errorf("empty table JSON: %s (%v)", data, err)
	}
}

// A NaN or Inf cell must degrade to null in JSON (encoding/json errors
// on non-finite floats, which would kill a whole experiment dump) and to
// readable text in the text/markdown renderings.
func TestTableNonFiniteCells(t *testing.T) {
	tb := NewTable("bad", "name", "value", "extra")
	tb.AddRow("nan", math.NaN(), 1.0)
	tb.AddRow("posinf", math.Inf(1), 2.0)
	tb.AddRow("neginf", math.Inf(-1), 3.0)

	data, err := tb.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON with non-finite cells: %v", err)
	}
	s := string(data)
	if !strings.Contains(s, `"value":null`) {
		t.Errorf("JSON lacks null for non-finite cell: %s", s)
	}
	if strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("JSON leaked non-finite literal: %s", s)
	}
	if !strings.Contains(s, `"extra":1`) {
		t.Errorf("finite cells must stay numbers: %s", s)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	var md strings.Builder
	tb.RenderMarkdown(&md)
	for _, want := range []string{"| nan | NaN |", "| posinf | +Inf |", "| neginf | -Inf |"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
	if !strings.Contains(tb.String(), "NaN") {
		t.Errorf("text rendering lost NaN: %q", tb.String())
	}
}

// Property: Quantile is monotone in q and bounded by Min/Max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Observe(v)
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := s.Quantile(q1), s.Quantile(q2)
		return a <= b && a >= s.xs[0] && b <= s.Max() // Quantile sorted xs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// Property: the time-weighted average of a gauge always lies within
// the range of the values set.
func TestPropertyGaugeAverageBounded(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var g Gauge
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			// Clamp magnitude so the time integral cannot overflow;
			// the property under test is averaging, not overflow.
			v = math.Mod(v, 1e6)
			g.Set(float64(i), v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		avg := g.Average(float64(len(vals)))
		const eps = 1e-9
		return avg >= lo-eps && avg <= hi+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// Property: Sample quantiles agree with direct sorting.
func TestPropertyQuantileMatchesSort(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
			s.Observe(float64(v))
		}
		sort.Float64s(vals)
		return s.Quantile(0) == vals[0] && s.Max() == vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}
