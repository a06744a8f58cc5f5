package atpg

import (
	"strings"
	"testing"

	"wcm3d/internal/faults"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netgen"
)

func TestVectorRoundTrip(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 200, FFs: 10, PIs: 5, POs: 3, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	list := faults.CollapsedList(n)
	res, err := Run(n, list, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim := faultsim.New(n)
	var sb strings.Builder
	if err := WritePatterns(&sb, sim, res.Patterns); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPatterns(strings.NewReader(sb.String()), sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res.Patterns) {
		t.Fatalf("patterns: wrote %d, read %d", len(res.Patterns), len(back))
	}
	for i := range back {
		for j := 0; j < sim.NumSources(); j++ {
			if back[i].Get(j) != res.Patterns[i].Get(j) {
				t.Fatalf("pattern %d bit %d changed", i, j)
			}
		}
	}
	// The read-back set must grade identically.
	orig, err := sim.RunCampaign(res.Patterns, list)
	if err != nil {
		t.Fatal(err)
	}
	read, err := sim.RunCampaign(back, list)
	if err != nil {
		t.Fatal(err)
	}
	if origCov, backCov := orig.Coverage(), read.Coverage(); origCov != backCov {
		t.Errorf("coverage changed through the file: %.4f -> %.4f", origCov, backCov)
	}
}

func TestReadPatternsErrors(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 50, FFs: 4, PIs: 3, POs: 2, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	sim := faultsim.New(n)
	cases := []struct {
		name, src string
	}{
		{"vector-before-header", "0101\n"},
		{"unknown-signal", "inputs nosuchsignal\n0\n"},
		{"uncontrollable", "inputs g0\n0\n"},
		{"bad-width", "inputs pi0 pi1\n010\n"},
		{"bad-bit", "inputs pi0\nX\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadPatterns(strings.NewReader(c.src), sim); err == nil {
				t.Error("expected error")
			}
		})
	}
}
