package placement

import (
	"math/rand"

	"megadc/internal/workload"
)

// GenConfig parameterizes synthetic placement problems for the
// scalability experiments. The defaults (via DefaultGenConfig) model the
// paper's environment: commodity servers, ~2.5 applications per server
// (300K apps / 300K servers with ~20 instances each ≈ a few instances
// per server), heavy-tailed demand.
type GenConfig struct {
	MachineCPU float64 // cores per machine
	MachineMem float64 // MB per machine
	MemPerInst float64 // MB footprint of one instance
	LoadFactor float64 // total demand / total CPU capacity
	ZipfS      float64 // app popularity skew
}

// DefaultGenConfig returns the configuration used by E2/E3.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		MachineCPU: 8,
		MachineMem: 16384,
		MemPerInst: 2048,
		LoadFactor: 0.7,
		ZipfS:      0.9,
	}
}

// Generate builds a random problem with nApps applications and nMachines
// machines. Total demand is LoadFactor × total capacity, split across
// apps by Zipf popularity with ±20% multiplicative noise.
func Generate(nApps, nMachines int, cfg GenConfig, rng *rand.Rand) *Problem {
	if nApps <= 0 || nMachines <= 0 {
		panic("placement: Generate needs positive sizes")
	}
	p := &Problem{
		AppDemand: make([]float64, nApps),
		AppMem:    make([]float64, nApps),
		MachCPU:   make([]float64, nMachines),
		MachMem:   make([]float64, nMachines),
	}
	for m := 0; m < nMachines; m++ {
		p.MachCPU[m] = cfg.MachineCPU
		p.MachMem[m] = cfg.MachineMem
	}
	weights := workload.ZipfWeights(nApps, cfg.ZipfS)
	totalDemand := cfg.LoadFactor * cfg.MachineCPU * float64(nMachines)
	for a := 0; a < nApps; a++ {
		noise := 0.8 + 0.4*rng.Float64()
		p.AppDemand[a] = totalDemand * weights[a] * noise
		// Cap any single app's demand at the cluster CPU (a flash-crowd
		// head app cannot absorb more than exists).
		if max := cfg.MachineCPU * float64(nMachines); p.AppDemand[a] > max {
			p.AppDemand[a] = max
		}
		p.AppMem[a] = cfg.MemPerInst
	}
	return p
}
