package experiments

import (
	"testing"

	"wcm3d/internal/netgen"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

// timedSink keeps the benchmarked results alive.
var timedSink *sta.Result

// BenchmarkTimeFunctionalMode times one functional-mode timing of b22/Die2
// at seed 1 under its final ours/tight plan and under that run's
// phase-one partial, completed as projectPartial completes it: through the
// die's cached timer (timer) and through a timer built for the call
// (oneshot, scan.TimeFunctionalMode).
func BenchmarkTimeFunctionalMode(b *testing.B) {
	var prof netgen.Profile
	for _, p := range netgen.ITC99Circuit("b22") {
		if p.Name() == "b22/Die2" {
			prof = p
		}
	}
	d, err := PrepareDie(prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := d.Input()
	refresh := in.RefreshTiming
	var partial *scan.Assignment
	in.RefreshTiming = func(p *scan.Assignment) (*sta.Result, error) {
		partial = withFullWrap(d.Netlist, p)
		return refresh(p)
	}
	res, err := wcm.Run(in, OurOptions(d, true))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		asn  *scan.Assignment
	}{{"final", res.Assignment}, {"partial", partial}} {
		b.Run(c.name+"/timer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := d.functionalTimer().Time(c.asn, d.ClockPS)
				if err != nil {
					b.Fatal(err)
				}
				timedSink = r
			}
		})
		b.Run(c.name+"/oneshot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := scan.TimeFunctionalMode(d.Netlist, d.Placement, d.Lib, c.asn, d.ClockPS)
				if err != nil {
					b.Fatal(err)
				}
				timedSink = r
			}
		})
	}
}
