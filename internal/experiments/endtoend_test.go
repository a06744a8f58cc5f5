package experiments

import (
	"testing"

	"wcm3d/internal/netgen"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcm"
)

// TestEndToEndShapeB11 is the reproduction's regression guard: the full
// pipeline on the b11 family must keep every qualitative property the
// paper's evaluation rests on. If a change to any substrate (generator,
// placer, STA, ATPG, partitioner) breaks one of these, this test names it.
func TestEndToEndShapeB11(t *testing.T) {
	dies, err := PrepareSuite(netgen.ITC99Circuit("b11"), 1)
	if err != nil {
		t.Fatal(err)
	}
	budget := ReducedBudget(1)
	for _, d := range dies {
		name := d.Profile.Name()
		nTSVs := len(d.Netlist.InboundTSVs()) + len(d.Netlist.OutboundTSVs())

		// 1. Full wrap: covers everything, one cell per TSV, meets its
		// own clock.
		fw := scan.FullWrap(d.Netlist)
		if fw.AdditionalCells() != nTSVs {
			t.Errorf("%s: full wrap %d cells, want %d", name, fw.AdditionalCells(), nTSVs)
		}
		if viol, wns, err := CheckTiming(d, fw); err != nil || viol {
			t.Errorf("%s: full wrap timing viol=%v wns=%.1f err=%v", name, viol, wns, err)
		}

		// 2. Ours, both scenarios: valid covering plan, fewer cells than
		// full wrap, zero violations.
		for _, tight := range []bool{false, true} {
			res, err := wcm.Run(d.Input(), OurOptions(d, tight))
			if err != nil {
				t.Fatalf("%s tight=%v: %v", name, tight, err)
			}
			if err := res.Assignment.Validate(d.Netlist); err != nil {
				t.Fatalf("%s tight=%v: invalid plan: %v", name, tight, err)
			}
			if !res.Assignment.Covered(d.Netlist) {
				t.Errorf("%s tight=%v: not covered", name, tight)
			}
			if res.AdditionalCells >= nTSVs {
				t.Errorf("%s tight=%v: no reduction (%d cells for %d TSVs)",
					name, tight, res.AdditionalCells, nTSVs)
			}
			if viol, wns, err := CheckTiming(d, res.Assignment); err != nil || viol {
				t.Errorf("%s tight=%v: viol=%v wns=%.1f err=%v", name, tight, viol, wns, err)
			}
		}

		// 3. Testability: wrapped die grades far above the bare die.
		our, err := wcm.Run(d.Input(), OurOptions(d, true))
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := EvaluateStuckAt(d, our.Assignment, budget)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := EvaluateStuckAt(d, &scan.Assignment{}, budget)
		if err != nil {
			t.Fatal(err)
		}
		if wrapped.RawCoverage <= bare.RawCoverage {
			t.Errorf("%s: wrapping did not raise raw coverage (%.3f <= %.3f)",
				name, wrapped.RawCoverage, bare.RawCoverage)
		}
		if wrapped.Coverage < 0.90 {
			t.Errorf("%s: wrapped test coverage %.3f below 0.90", name, wrapped.Coverage)
		}

		// 4. Scan chains: stitchable, test time scales with patterns.
		chains, err := scan.BuildChains(d.Netlist, d.Placement, our.Assignment, 2)
		if err != nil {
			t.Fatal(err)
		}
		if chains.NumCells() != len(d.Netlist.FlipFlops())+our.AdditionalCells {
			t.Errorf("%s: chain stitching missed cells", name)
		}
		if chains.TestCycles(wrapped.Patterns) <= wrapped.Patterns {
			t.Errorf("%s: test cycles must exceed pattern count", name)
		}
	}
}
