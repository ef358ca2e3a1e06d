package exp

import (
	"megadc/internal/metrics"
	"megadc/internal/twolayer"
)

// E13Result records the single detailed policy-conflict scenario.
type E13Result struct {
	OneLayer twolayer.ConflictResult
	TwoLayer twolayer.ConflictResult
}

// RunE13 demonstrates the Section V-B policy conflict in one concrete
// scenario: the DNS split that balances the access links overloads the
// small pod, and the split that protects the pod overloads a link; the
// single-layer architecture must compromise, the two-layer architecture
// satisfies both objectives.
func RunE13(o Options) (*metrics.Table, *E13Result, error) {
	sc := twolayer.ConflictScenario{
		TrafficMbps: 1000,
		LinkCap:     [2]float64{600, 600},  // balanced links want a 50/50 split
		PodCap:      [2]float64{250, 1000}, // pods want 20/80
	}
	one, err := twolayer.SolveOneLayer(sc)
	if err != nil {
		return nil, nil, err
	}
	two, err := twolayer.SolveTwoLayer(sc)
	if err != nil {
		return nil, nil, err
	}
	tb := metrics.NewTable("E13 — policy conflict: link balancing vs pod balancing",
		"architecture", "link split", "pod split", "max link util", "max pod util", "objective")
	tb.AddRow(one.Arch, one.Split, one.PodSplit, one.MaxLinkUtil, one.MaxPodUtil, one.Objective)
	tb.AddRow(two.Arch, two.Split, two.PodSplit, two.MaxLinkUtil, two.MaxPodUtil, two.Objective)
	return tb, &E13Result{OneLayer: one, TwoLayer: two}, nil
}
