package placement

import (
	"math/rand"

	"megadc/internal/workload"
)

// The machines and instances of generated problems model the paper's
// environment: commodity servers, ~2.5 applications per server (300K
// apps / 300K servers with ~20 instances each ≈ a few instances per
// server), heavy-tailed demand.
const (
	machineCPU float64 = 8     // cores per machine
	machineMem float64 = 16384 // MB per machine
	memPerInst float64 = 2048  // MB footprint of one instance
	zipfS      float64 = 0.9   // app popularity skew
)

// Generate builds a random problem with nApps applications and nMachines
// machines. Total demand is loadFactor × total capacity, split across
// apps by Zipf popularity with ±20% multiplicative noise.
func Generate(nApps, nMachines int, loadFactor float64, rng *rand.Rand) *Problem {
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
		p.MachCPU[m] = machineCPU
		p.MachMem[m] = machineMem
	}
	weights := workload.ZipfWeights(nApps, zipfS)
	totalDemand := loadFactor * machineCPU * float64(nMachines)
	for a := 0; a < nApps; a++ {
		noise := 0.8 + 0.4*rng.Float64()
		p.AppDemand[a] = totalDemand * weights[a] * noise
		// Cap any single app's demand at the cluster CPU (a flash-crowd
		// head app cannot absorb more than exists).
		if max := machineCPU * float64(nMachines); p.AppDemand[a] > max {
			p.AppDemand[a] = max
		}
		p.AppMem[a] = memPerInst
	}
	return p
}
