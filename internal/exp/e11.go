package exp

import (
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/twolayer"
	"megadc/internal/viprip"
)

// E11Row is one pod-asymmetry point of the two-layer comparison.
type E11Row struct {
	OneLayerObj   float64
	TwoLayerObj   float64
	ConflictGap   float64
	ExtraSwitches int // DD-layer switches at the paper's scale
}

// E11Result records the two-layer decoupling sweep.
type E11Result struct {
	Rows []E11Row
}

// RunE11 sweeps pod-capacity asymmetry and reports the one-layer
// compromise versus the two-layer optimum (Section V-B), plus the extra
// demand-distribution switches the decoupling costs at the paper's
// scale (300K apps × 3 external VIPs).
func RunE11(o Options) (*metrics.Table, *E11Result, error) {
	limits := lbswitch.CatalystCSM()
	// DD layer holds the external VIPs: same arithmetic as the
	// single-layer VIP count, but now *additional* switches.
	extra := viprip.MinSwitchCount(300_000, 3, 0, limits)

	res := &E11Result{}
	tb := metrics.NewTable("E11 — two-LB-layer decoupling vs pod asymmetry",
		"pod cap ratio", "one-layer objective", "two-layer objective", "conflict gap", "extra DD switches @300K apps")

	for _, ratio := range []float64{1, 2, 4, 8, 16} {
		sc := twolayer.ConflictScenario{
			TrafficMbps: 1000,
			LinkCap:     [2]float64{700, 700},
			PodCap:      [2]float64{2000 / (1 + ratio), 2000 * ratio / (1 + ratio)},
		}
		one, err := twolayer.SolveOneLayer(sc)
		if err != nil {
			return nil, nil, err
		}
		two, err := twolayer.SolveTwoLayer(sc)
		if err != nil {
			return nil, nil, err
		}
		row := E11Row{
			OneLayerObj:   one.Objective,
			TwoLayerObj:   two.Objective,
			ConflictGap:   one.Objective - two.Objective,
			ExtraSwitches: extra,
		}
		res.Rows = append(res.Rows, row)
		tb.AddRow(ratio, row.OneLayerObj, row.TwoLayerObj, row.ConflictGap, extra)
	}
	return tb, res, nil
}
