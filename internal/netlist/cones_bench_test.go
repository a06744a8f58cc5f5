package netlist_test

import (
	"testing"

	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
)

// BenchmarkConeSet measures precomputing every WCM-relevant cone on a
// b20-class die — the first stage of the single-die hot path — serially
// and across all cores.
func BenchmarkConeSet(b *testing.B) {
	n, err := netgen.Generate(netgen.ITC99Circuit("b20")[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	var signals []netlist.SignalID
	signals = append(signals, n.InboundTSVs()...)
	signals = append(signals, n.FlipFlops()...)
	for _, p := range n.OutboundTSVs() {
		signals = append(signals, n.Outputs[p].Signal)
	}
	b.ReportMetric(float64(len(signals)), "cones")
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				netlist.NewConeSetWorkers(n, signals, bc.workers)
			}
		})
	}
}
