package exp

import (
	"math/rand"
	"time"

	"megadc/internal/metrics"
	"megadc/internal/placement"
)

// E2Row is one scalability measurement.
type E2Row struct {
	Servers        int
	CentralizedSec float64 // monolithic controller wall time
	CentralizedSat float64
	HierMaxSec     float64 // slowest pod (ideal parallel lower bound)
	HierSat        float64
}

// E2Result records the placement-scalability experiment.
type E2Result struct {
	Rows []E2Row
}

// RunE2 measures placement-controller execution time versus cluster
// size, centralized (the paper's cited bottleneck: ~30 s for 7,000
// servers / 17,500 apps in [23]) against the hierarchical pod scheme
// (Section III-A), where each pod solves a bounded problem and pods run
// independently.
func RunE2(o Options) (*metrics.Table, *E2Result, error) {
	sizes := []int{250, 500, 1000, 2000}
	podSize := 500
	if o.Full {
		sizes = append(sizes, 4000, 8000)
		podSize = 1000
	}
	appsPerServer := 2.5

	res := &E2Result{}
	tb := metrics.NewTable("E2 — placement scalability (centralized vs hierarchical pods)",
		"servers", "apps", "centralized s", "central sat", "pod size", "hier max s", "hier sum s", "hier wall s", "hier sat")

	for _, n := range sizes {
		apps := int(float64(n) * appsPerServer)
		rng := rand.New(rand.NewSource(o.Seed))
		prob := placement.Generate(apps, n, 0.7, rng)

		// Best of three runs: the small problems finish in milliseconds,
		// where GC pauses from neighbouring work would distort the curve.
		centralSec := 0.0
		centralSat := 0.0
		for rep := 0; rep < 3; rep++ {
			ctl := &placement.Controller{}
			start := time.Now()
			sol := ctl.Place(prob)
			sec := time.Since(start).Seconds()
			if rep == 0 || sec < centralSec {
				centralSec = sec
			}
			centralSat = sol.SatisfiedFraction(prob)
		}

		maxSec, sumSec, hierSat := hierarchicalPlace(prob, podSize)
		wallSec := parallelWall(prob, podSize)

		row := E2Row{
			Servers: n, CentralizedSec: centralSec, CentralizedSat: centralSat,
			HierMaxSec: maxSec, HierSat: hierSat,
		}
		res.Rows = append(res.Rows, row)
		tb.AddRow(n, apps, centralSec, centralSat, podSize, maxSec, sumSec, wallSec, hierSat)
	}
	return tb, res, nil
}

// parallelWall measures the actual wall time of solving the pods
// concurrently (the pod managers' real execution model), best of three.
func parallelWall(prob *placement.Problem, podSize int) float64 {
	subs := placement.SplitIntoPods(prob, podSize)
	if len(subs) == 0 {
		return 0
	}
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		placement.ParallelPlace(subs, 0)
		if sec := time.Since(start).Seconds(); rep == 0 || sec < best {
			best = sec
		}
	}
	return best
}

// hierarchicalPlace splits the problem into pods of podSize machines
// with apps assigned round-robin (placement.SplitIntoPods), solves each
// pod independently, and returns (max pod seconds, summed seconds,
// overall satisfied fraction).
func hierarchicalPlace(prob *placement.Problem, podSize int) (maxSec, sumSec, satisfied float64) {
	subs := placement.SplitIntoPods(prob, podSize)
	if len(subs) == 0 {
		return 0, 0, 1
	}
	var totalSat, totalDemand float64
	for _, sub := range subs {
		if sub.NumMachines() == 0 || sub.NumApps() == 0 {
			continue
		}
		ctl := &placement.Controller{}
		start := time.Now()
		sol := ctl.Place(sub)
		sec := time.Since(start).Seconds()
		sumSec += sec
		if sec > maxSec {
			maxSec = sec
		}
		totalSat += sol.Satisfied()
		totalDemand += sub.TotalDemand()
	}
	if totalDemand == 0 {
		return maxSec, sumSec, 1
	}
	return maxSec, sumSec, totalSat / totalDemand
}
