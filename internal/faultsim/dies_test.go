package faultsim_test

import (
	"math/rand"
	"os"
	"testing"

	"wcm3d/internal/experiments"
	"wcm3d/internal/faults"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netgen"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcm"
)

// TestDetectsMatchesReferenceOnDies holds the stem-region grader to the
// whole-cone reference on the test views ATPG grades: each die wrapped by
// its ours/tight plan at seed 1. Every fault of the collapsed stuck-at
// list and every transition fault's stuck-at equivalent must get the same
// detection word from two random blocks. It covers the b11 and b12
// families by default and all 24 Table II dies under WCM3D_FULL_EQUIV=1.
func TestDetectsMatchesReferenceOnDies(t *testing.T) {
	profiles := append(netgen.ITC99Circuit("b11"), netgen.ITC99Circuit("b12")...)
	if os.Getenv("WCM3D_FULL_EQUIV") != "" {
		profiles = netgen.ITC99Profiles()
	}
	for _, p := range profiles {
		d, err := experiments.PrepareDie(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		res, err := wcm.Run(d.Input(), experiments.OurOptions(d, true))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		tn, err := scan.ApplyTestMode(d.Netlist, res.Assignment)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		list := append([]faults.Fault(nil), d.StuckAt...)
		for _, tf := range d.Transition {
			list = append(list, tf.Equivalent())
		}
		sim := faultsim.New(tn)
		rng := rand.New(rand.NewSource(1))
		eng, ref := sim.NewEngine(), sim.NewReferenceEngine()
		detected := 0
		for blk := 0; blk < 2; blk++ {
			pats := make([]faultsim.Pattern, 64)
			for i := range pats {
				pats[i] = sim.RandomPattern(rng)
			}
			good, err := sim.GoodSim(pats)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range list {
				got, want := eng.Detects(f, good), ref.Detects(f, good)
				if got != want {
					t.Fatalf("%s block %d, %s: stem-region word %064b, reference %064b",
						p.Name(), blk, f.Describe(tn), got, want)
				}
				if got != 0 {
					detected++
				}
			}
		}
		t.Logf("%s: %d faults, %d detections over 2 blocks agree", p.Name(), len(list), detected)
	}
}
