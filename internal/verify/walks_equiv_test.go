package verify_test

import (
	"os"
	"testing"

	"wcm3d/internal/experiments"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/scan"
	"wcm3d/internal/verify"
	"wcm3d/internal/wcm"
)

// TestConeWalksMatchReference is the differential test of the verifier's
// cone walks against the map-based walks they replaced. On each die it
// compares every TSV and flip-flop cone and the overlap of neighbouring
// cones, then runs the structural checks on both implementations over
// three plans: the optimizer's plan under its own thresholds, the same
// plan with no thresholds (every overlapping pair becomes a violation
// that quotes its count), and a plan that packs the TSVs into groups of
// eight in pin order (many pairs, overlaps and distance violations). The
// b11/b12 dies run by default; WCM3D_FULL_EQUIV=1 covers all 24 Table II
// dies.
func TestConeWalksMatchReference(t *testing.T) {
	profiles := append(netgen.ITC99Circuit("b11"), netgen.ITC99Circuit("b12")...)
	if os.Getenv("WCM3D_FULL_EQUIV") != "" {
		profiles = netgen.ITC99Profiles()
	}
	for _, p := range profiles {
		t.Run(p.Name(), func(t *testing.T) {
			d, err := experiments.PrepareDie(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			in := d.Input()
			cones, err := verify.ConeWalksMatchReference(in.Netlist)
			if err != nil {
				t.Fatal(err)
			}
			res, err := wcm.Run(in, experiments.OurOptions(d, true))
			if err != nil {
				t.Fatal(err)
			}
			plans := []struct {
				name string
				asn  *scan.Assignment
				vo   verify.Options
			}{
				{"optimizer", res.Assignment, verify.Options{Thresholds: &res.Options}},
				{"no-thresholds", res.Assignment, verify.Options{}},
				{"packed", packedPlan(in), verify.Options{Thresholds: &res.Options}},
			}
			violations := 0
			for _, pl := range plans {
				vres, err := verify.StructuralMatchesReference(in, pl.asn, pl.vo)
				if err != nil {
					t.Fatalf("%s plan: %v", pl.name, err)
				}
				violations += len(vres.Violations)
				t.Logf("%d cones; %s plan: %d pairs, %d violations", cones, pl.name, vres.Pairs, len(vres.Violations))
			}
			if violations == 0 {
				t.Error("no plan produced a violation, so the reports were never compared")
			}
		})
	}
}

// packedPlan groups the die's TSVs eight at a time in pin order, with no
// flip-flop reuse: a valid cover that ignores every sharing condition.
func packedPlan(in wcm.Input) *scan.Assignment {
	const size = 8
	n := in.Netlist
	asn := &scan.Assignment{}
	tsvs := n.InboundTSVs()
	for i := 0; i < len(tsvs); i += size {
		g := scan.ControlGroup{ReusedFF: netlist.InvalidSignal}
		g.TSVs = append(g.TSVs, tsvs[i:min(i+size, len(tsvs))]...)
		asn.Control = append(asn.Control, g)
	}
	ports := n.OutboundTSVs()
	for i := 0; i < len(ports); i += size {
		g := scan.ObserveGroup{ReusedFF: netlist.InvalidSignal}
		g.Ports = append(g.Ports, ports[i:min(i+size, len(ports))]...)
		asn.Observe = append(asn.Observe, g)
	}
	return asn
}
