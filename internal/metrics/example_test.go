package metrics_test

import (
	"fmt"
	"os"

	"megadc/internal/metrics"
)

// Time-weighted gauges and experiment tables.
func Example() {
	var util metrics.Gauge
	util.Set(0, 0.2)  // 20% for the first 60 s
	util.Set(60, 0.8) // then 80% for 40 s
	fmt.Printf("time-weighted average over 100 s: %.2f\n", util.Average(100))

	tb := metrics.NewTable("demo", "metric", "value")
	tb.AddRow("avg util", util.Average(100))
	tb.AddRow("final util", util.Value())
	tb.Render(os.Stdout)
	// Output:
	// time-weighted average over 100 s: 0.44
	// == demo ==
	// metric      value
	// ----------  -----
	// avg util    0.44
	// final util  0.8
}
