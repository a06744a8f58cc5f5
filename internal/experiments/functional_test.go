package experiments

import (
	"fmt"
	"math"
	"os"
	"testing"

	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

// functionalProfiles returns the dies the functional-timing differential
// covers: the b11 and b12 families by default, all 24 Table II dies under
// WCM3D_FULL_EQUIV=1.
func functionalProfiles() []netgen.Profile {
	if os.Getenv("WCM3D_FULL_EQUIV") != "" {
		return netgen.ITC99Profiles()
	}
	return append(netgen.ITC99Circuit("b11"), netgen.ITC99Circuit("b12")...)
}

// materialized is the reference path scan.TimeFunctionalMode replaces:
// build the functional netlist, then run sta.Analyze on it with test_en
// tied low.
func materialized(d *Die, asn *scan.Assignment, clockPS float64) (*sta.Result, error) {
	fn, fpl, err := scan.ApplyFunctionalMode(d.Netlist, d.Placement, d.Lib, asn)
	if err != nil {
		return nil, err
	}
	te, ok := fn.SignalByName(scan.TestEnableName)
	if !ok {
		return nil, fmt.Errorf("functional netlist has no %s", scan.TestEnableName)
	}
	return sta.Analyze(fn, d.Lib, sta.Config{ClockPS: clockPS, Placement: fpl, TieLow: []netlist.SignalID{te}})
}

// sameBits reports the first signal whose figure differs between two
// analyses under math.Float64bits, or "" when every figure matches.
func sameBits(got, want *sta.Result) string {
	fields := []struct {
		name      string
		got, want []float64
	}{
		{"LoadFF", got.LoadFF, want.LoadFF},
		{"DelayPS", got.DelayPS, want.DelayPS},
		{"ArrivalPS", got.ArrivalPS, want.ArrivalPS},
		{"RequiredPS", got.RequiredPS, want.RequiredPS},
	}
	for _, f := range fields {
		if len(f.got) != len(f.want) {
			return fmt.Sprintf("%s: %d signals, want %d", f.name, len(f.got), len(f.want))
		}
		for i := range f.got {
			if math.Float64bits(f.got[i]) != math.Float64bits(f.want[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", f.name, i, f.got[i], f.want[i])
			}
		}
	}
	if g, w := got.WNS(), want.WNS(); math.Float64bits(g) != math.Float64bits(w) {
		return fmt.Sprintf("WNS = %v, want %v", g, w)
	}
	return ""
}

// TestTimeFunctionalModeMatchesMaterialized holds the flat timing view to
// ApplyFunctionalMode + sta.Analyze, bit for bit on every signal, for
// every plan the flows time: full-wrap, Agrawal and ours under both
// scenarios, and each of those plans' phase-one partial as projectPartial
// completes it. The full-wrap probe also re-derives the die's clock the
// way PrepareDie did before it timed one view for both clocks.
func TestTimeFunctionalModeMatchesMaterialized(t *testing.T) {
	for _, p := range functionalProfiles() {
		d, err := PrepareDie(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		check := func(label string, asn *scan.Assignment) {
			t.Helper()
			want, err := materialized(d, asn, d.ClockPS)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", p.Name(), label, err)
			}
			got, err := scan.TimeFunctionalMode(d.Netlist, d.Placement, d.Lib, asn, d.ClockPS)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name(), label, err)
			}
			if diff := sameBits(got, want); diff != "" {
				t.Errorf("%s %s: %s", p.Name(), label, diff)
			}
		}

		fw := scan.FullWrap(d.Netlist)
		check("full-wrap", fw)
		probe, err := materialized(d, fw, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		cp := probe.CriticalPathPS()
		if clock := cp + 30 + 0.05*cp; math.Float64bits(clock) != math.Float64bits(d.ClockPS) {
			t.Errorf("%s: clock %v, the materialized probe gives %v", p.Name(), d.ClockPS, clock)
		}

		for _, tight := range []bool{false, true} {
			for _, m := range []struct {
				name string
				opts wcm.Options
			}{{"agrawal", AgrawalOptions(d, tight)}, {"ours", OurOptions(d, tight)}} {
				label := fmt.Sprintf("%s/tight=%v", m.name, tight)
				in := d.Input()
				refresh := in.RefreshTiming
				partials := 0
				in.RefreshTiming = func(partial *scan.Assignment) (*sta.Result, error) {
					partials++
					check(label+" phase-one partial", withFullWrap(d.Netlist, partial))
					return refresh(partial)
				}
				res, err := wcm.Run(in, m.opts)
				if err != nil {
					t.Fatalf("%s %s: %v", p.Name(), label, err)
				}
				if partials != 1 {
					t.Errorf("%s %s: %d phase-one refreshes, want 1", p.Name(), label, partials)
				}
				check(label, res.Assignment)
			}
		}
	}
}
