package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"megadc/internal/workload"
)

// MuxConfig parameterizes the statistical-multiplexing experiment (E9):
// the same applications with stochastic demand are hosted either in one
// shared mega data center or in P isolated partitions (the
// compartmentalization the paper's shared-switch architecture avoids).
type MuxConfig struct {
	Apps   int
	Trials int // Monte-Carlo epochs
	Seed   int64
}

// The fixed E9 fleet and demand model.
const (
	muxServers               = 300 // total servers, split evenly across partitions
	muxServerCPU     float64 = 8   // cores per server
	muxMeanDemandCPU float64 = 4.8 // mean demand per app (cores): 300 × 4.8 = 1440 of 2400 cores ⇒ 60% mean load
	muxSigma         float64 = 1.0 // lognormal demand sigma (heavy tail)
	muxZipfS         float64 = 0.8 // popularity skew across apps
)

// DefaultMuxConfig returns the E9 configuration: 300 apps on 300 servers
// (scaled 1000× down from the paper's 300K apps / 300K servers, keeping
// its 1:1 ratio; mean total demand ≈ 60% of capacity).
func DefaultMuxConfig() MuxConfig {
	return MuxConfig{
		Apps:   300,
		Trials: 2000,
		Seed:   7,
	}
}

// MuxResult reports overload statistics for one partitioning level.
type MuxResult struct {
	Partitions      int
	OverloadProb    float64 // P(at least one partition's demand > its capacity)
	MeanUtilization float64 // mean of total demand / total capacity
	P99Utilization  float64 // 99th percentile of the per-trial max partition utilization
	LostDemandFrac  float64 // mean fraction of demand above partition capacity
}

// RunMultiplexing evaluates overload probability for each partition
// count. Apps are assigned to partitions round-robin by popularity rank
// (a reasonably fair static assignment); demand per app per trial is an
// independent lognormal around its popularity-scaled mean — the
// unpredictable Internet-application demand the paper's elasticity
// targets.
func RunMultiplexing(cfg MuxConfig, partitionCounts []int) ([]MuxResult, error) {
	if cfg.Apps <= 0 || cfg.Trials <= 0 {
		return nil, fmt.Errorf("baseline: bad mux config %+v", cfg)
	}
	weights := workload.ZipfWeights(cfg.Apps, muxZipfS)
	// Per-app mean demand: popularity-scaled, normalized so the total
	// mean is Apps × MeanDemandCPU.
	means := make([]float64, cfg.Apps)
	total := muxMeanDemandCPU * float64(cfg.Apps)
	for i, w := range weights {
		means[i] = total * w
	}
	// The unit-median lognormal has mean exp(sigma²/2); divide it out so
	// each app's mean demand is exactly means[i].
	meanCorrection := math.Exp(-muxSigma * muxSigma / 2)

	var out []MuxResult
	for _, parts := range partitionCounts {
		if parts <= 0 || parts > muxServers {
			return nil, fmt.Errorf("baseline: partition count %d out of range", parts)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		// Partition capacities: split servers as evenly as possible.
		capPerPart := make([]float64, parts)
		for s := 0; s < muxServers; s++ {
			capPerPart[s%parts] += muxServerCPU
		}
		// Static app assignment: round-robin by rank.
		appPart := make([]int, cfg.Apps)
		for a := 0; a < cfg.Apps; a++ {
			appPart[a] = a % parts
		}
		overloads := 0
		var sumUtil, sumLost float64
		maxUtils := make([]float64, 0, cfg.Trials)
		demand := make([]float64, parts)
		for trial := 0; trial < cfg.Trials; trial++ {
			for i := range demand {
				demand[i] = 0
			}
			var totDemand float64
			for a := 0; a < cfg.Apps; a++ {
				d := means[a] * workload.LognormalDemand(muxSigma, rng) * meanCorrection
				demand[appPart[a]] += d
				totDemand += d
			}
			over := false
			var lost, maxU float64
			for i := range demand {
				if u := demand[i] / capPerPart[i]; u > maxU {
					maxU = u
				}
				if demand[i] > capPerPart[i] {
					over = true
					lost += demand[i] - capPerPart[i]
				}
			}
			if over {
				overloads++
			}
			sumUtil += totDemand / (muxServerCPU * float64(muxServers))
			if totDemand > 0 {
				sumLost += lost / totDemand
			}
			maxUtils = append(maxUtils, maxU)
		}
		// p99 of max partition utilization.
		p99 := percentile(maxUtils, 0.99)
		out = append(out, MuxResult{
			Partitions:      parts,
			OverloadProb:    float64(overloads) / float64(cfg.Trials),
			MeanUtilization: sumUtil / float64(cfg.Trials),
			P99Utilization:  p99,
			LostDemandFrac:  sumLost / float64(cfg.Trials),
		})
	}
	return out, nil
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Selection by sorting a copy (trial counts are small).
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	idx := int(q * float64(len(cp)-1))
	return cp[idx]
}
