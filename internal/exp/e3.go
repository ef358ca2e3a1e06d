package exp

import (
	"math/rand"

	"megadc/internal/metrics"
	"megadc/internal/placement"
)

// E3Row is one pod-size measurement at fixed cluster size.
type E3Row struct {
	PodSize   int
	Pods      int
	MaxSec    float64 // slowest pod-manager decision (pods in parallel)
	Satisfied float64
}

// E3Result records the pod-sizing experiment.
type E3Result struct {
	MonolithicSec float64
	Rows          []E3Row
}

// RunE3 fixes the cluster size and sweeps the pod size, measuring the
// decision-time / solution-quality tradeoff that motivates the paper's
// ~5,000-server pod target: small pods decide fast but fragment
// capacity; one giant pod is the centralized bottleneck.
func RunE3(o Options) (*metrics.Table, *E3Result, error) {
	servers := 2000
	podSizes := []int{125, 250, 500, 1000, 2000}
	if o.Full {
		servers = 8000
		podSizes = []int{250, 500, 1000, 2000, 4000, 8000}
	}
	apps := int(float64(servers) * 2.5)
	rng := rand.New(rand.NewSource(o.Seed))
	// Load factor 0.85: tight enough that fragmentation shows.
	prob := placement.Generate(apps, servers, 0.85, rng)

	res := &E3Result{}
	// Monolithic reference.
	res.MonolithicSec, _, _ = hierarchicalPlace(prob, servers)

	tb := metrics.NewTable("E3 — pod size vs decision time and quality (fixed cluster)",
		"pod size", "pods", "max pod s", "sum s", "satisfied", "speedup vs monolithic")
	for _, ps := range podSizes {
		maxSec, sumSec, sat := hierarchicalPlace(prob, ps)
		speedup := 0.0
		if maxSec > 0 {
			speedup = res.MonolithicSec / maxSec
		}
		row := E3Row{
			PodSize: ps, Pods: (servers + ps - 1) / ps,
			MaxSec: maxSec, Satisfied: sat,
		}
		res.Rows = append(res.Rows, row)
		tb.AddRow(ps, row.Pods, maxSec, sumSec, sat, speedup)
	}
	return tb, res, nil
}
