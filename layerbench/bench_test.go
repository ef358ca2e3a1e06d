package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The self-test runs the benchmark itself at tiny sizes. The test
// binary doubles as the benchmark binary: with selfTestEnv set it runs
// main, so the parent and its child repetitions are this executable.
const selfTestEnv = "LAYERBENCH_SELFTEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(selfTestEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// runTiny runs one tiny benchmark invocation and returns its stdout
// lines and the parsed last line.
func runTiny(t *testing.T, workload, trace string) ([]string, result) {
	t.Helper()
	root := t.TempDir()
	cmd := exec.Command(os.Args[0], "-workload", workload, "-tiny", "-seconds", "0", "-trace", trace, "-seed", "3", "-root", root)
	cmd.Env = append(os.Environ(), selfTestEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s --trace %s: %v\n%s", workload, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s --trace %s: last line is not the result object: %v", workload, trace, err)
	}
	// Every workload is chosen so that no operation fails.
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s --trace %s: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, out)
	}
	if trace == "1" {
		spans, err := filepath.Glob(filepath.Join(root, ".bench_build", "spans-"+workload+"-seed3.json"))
		if err != nil || len(spans) != 1 {
			t.Fatalf("%s: span file missing", workload)
		}
		raw, err := os.ReadFile(spans[0])
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
			t.Fatalf("%s: span file unreadable or empty: %v", workload, err)
		}
	}
	return lines, res
}

// checkMetrics asserts the result carries exactly the listed metrics,
// each with its unit and a finite value.
func checkMetrics(t *testing.T, workload string, got map[string]value, want []metricSpec, nonzero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", workload, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", workload, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", workload, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.Name, v.Value)
		case nonzero && v.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", workload, m.Name)
		}
	}
}

func digestLine(t *testing.T, lines []string) string {
	t.Helper()
	for _, l := range lines {
		if strings.HasPrefix(l, "digest ") {
			return l
		}
	}
	t.Fatal("no digest line printed")
	return ""
}

func TestBenchmarkSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if i < len(perLayer) && (m.Name != perLayer[i][0] || m.Unit != perLayer[i][1]) {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
	var setup bool
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound must be in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s [s], lower is better")
	}
}

// TestSelfTest runs every workload at tiny size, untraced twice and
// traced once: every metric named in BENCHMARK.json must be printed
// with its unit, the checks must pass, and the digest must repeat
// across separate processes.
func TestSelfTest(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			lines1, res1 := runTiny(t, w.Name, "0")
			checkMetrics(t, w.Name, res1.Metrics, s.EndToEnd, true)
			lines2, _ := runTiny(t, w.Name, "0")
			if a, b := digestLine(t, lines1), digestLine(t, lines2); a != b {
				t.Errorf("digest differs between runs:\n%s\n%s", a, b)
			}
			lines3, res3 := runTiny(t, w.Name, "1")
			checkMetrics(t, w.Name, res3.Metrics, s.PerLayer, false)
			if a, b := digestLine(t, lines1), digestLine(t, lines3); a != b {
				t.Errorf("traced digest differs from untraced:\n%s\n%s", a, b)
			}
		})
	}
}

// TestClockReferenceSeconds checks the reference clock on a busy loop:
// the reference seconds it reports are the loop's CPU seconds scaled by
// the kernel's measured speed, and the kernel chunks are not counted.
func TestClockReferenceSeconds(t *testing.T) {
	c := newClock()
	c.start()
	var x uint64
	for t0 := cpuTime(); cpuTime()-t0 < 200*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
		c.tick()
	}
	segs := len(c.segs)
	ref, cpu := c.lap()
	if segs < 2 || cpu < 0.1 || cpu > 0.4 || c.refCPU <= 0 {
		t.Fatalf("segments %d, cpu %.3f s, kernel cpu %.3f s (x=%d)", segs, cpu, c.refCPU, x&1)
	}
	if f := ref / cpu; f < 0.05 || f > 20 {
		t.Fatalf("reference seconds %.3f for %.3f CPU seconds", ref, cpu)
	}
	if f := c.factor(); f <= 0 {
		t.Fatalf("factor %v", f)
	}
}

// TestChurnCannotDeadLetter checks that churn-observed's bus retries
// outlast the simulation at both sizes, so its operations cannot fail.
func TestChurnCannotDeadLetter(t *testing.T) {
	for _, tiny := range []bool{false, true} {
		pr, err := paramsFor("churn-observed", tiny)
		if err != nil {
			t.Fatal(err)
		}
		in, err := build("churn-observed", 1, tiny, false)
		if err != nil {
			t.Fatal(err)
		}
		if w := retryWindow(in.p.Cfg.Ctrl); w <= pr.horizon {
			t.Errorf("tiny=%v: retry window %.0f s does not outlast the %.0f s simulation", tiny, w, pr.horizon)
		}
	}
}
