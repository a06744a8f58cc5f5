package verify_test

import (
	"testing"

	"wcm3d/internal/experiments"
	"wcm3d/internal/netgen"
	"wcm3d/internal/verify"
	"wcm3d/internal/wcm"
)

// TestCertifyProfiles certifies the paper's benchmark suite: every Table II
// die profile, prepared exactly as the experiments pipeline prepares it
// (margin-derived clock, full-wrap-projected slacks, cross-phase timing
// refresh), planned with the paper's configuration, then held to its own
// contract — including functional-mode signoff on the small circuits.
// Under -short or the race detector only the b11/b12 profiles run; the
// plain `go test ./...` tier covers all 24.
func TestCertifyProfiles(t *testing.T) {
	profiles := netgen.ITC99Profiles()
	if testing.Short() || raceEnabled {
		profiles = append(netgen.ITC99Circuit("b11"), netgen.ITC99Circuit("b12")...)
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			d, err := experiments.PrepareDie(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			small := p.Gates <= 2000
			for _, tight := range []bool{false, true} {
				if !tight && !small {
					continue // one scenario is enough on the big dies
				}
				res, err := wcm.Run(d.Input(), experiments.OurOptions(d, tight))
				if err != nil {
					t.Fatalf("tight=%v: %v", tight, err)
				}
				vres, err := verify.Plan(d.Input(), res.Assignment, verify.Options{
					Thresholds: &res.Options,
					Signoff:    small,
				})
				if err != nil {
					t.Fatalf("tight=%v: %v", tight, err)
				}
				for _, v := range vres.Violations {
					t.Errorf("tight=%v: %s", tight, v)
				}
				if vres.Groups == 0 {
					t.Errorf("tight=%v: verifier saw no groups", tight)
				}
			}
		})
	}
}
