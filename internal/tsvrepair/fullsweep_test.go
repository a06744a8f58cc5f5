package tsvrepair

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"wcm3d/internal/netgen"
)

// randomFault draws one well-formed fault over the live TSV set. Pair
// kinds that happen to draw the same TSV twice degrade to Open so every
// generated delta is resolvable in shape (the planner still decides
// whether spares remain).
func randomFault(rng *rand.Rand, names []string) Fault {
	kinds := []FaultKind{Stuck0, Stuck1, Open, Bridge, Crosstalk}
	f := Fault{Kind: kinds[rng.Intn(len(kinds))], TSV: names[rng.Intn(len(names))]}
	if f.Kind == Bridge || f.Kind == Crosstalk {
		other := names[rng.Intn(len(names))]
		if other == f.TSV {
			f.Kind = Open
		} else {
			f.With = other
		}
	}
	return f
}

// TestFullEquivalenceSweepTableII is the replan release gate: randomized
// TSV-delta sequences on every Table II profile at workers {1,2,8}, each
// (profile, workers) pair under its own sequence seed — 72 seeds, 24
// profiles, every step holding the differential contract (incremental
// replan deep-equal to a from-scratch rerun, and verify-clean). Minutes of
// work, so it only runs when WCM3D_FULL_EQUIV=1 (CI's replan-equivalence
// job sets it).
func TestFullEquivalenceSweepTableII(t *testing.T) {
	if os.Getenv("WCM3D_FULL_EQUIV") == "" {
		t.Skip("set WCM3D_FULL_EQUIV=1 to run the full 24-die replan equivalence sweep")
	}
	workersGrid := []int{1, 2, 8}
	for pi, prof := range netgen.ITC99Profiles() {
		pi, prof := pi, prof
		t.Run(prof.Name(), func(t *testing.T) {
			t.Parallel()
			d, err := prepareSpared(prof, 1, SpareSpec{Inbound: 4, Outbound: 2})
			if err != nil {
				t.Fatal(err)
			}
			for wi, workers := range workersGrid {
				seqSeed := int64(pi*len(workersGrid) + wi + 1)
				t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
					p, err := NewPlanner(d, planOpts(workers))
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seqSeed))
					for step := 0; step < 2; step++ {
						f := randomFault(rng, liveTSVNames(p.Die()))
						if _, err := p.Apply(Delta{Faults: []Fault{f}}); err != nil {
							if errors.Is(err, ErrNoSpares) {
								break
							}
							t.Fatalf("seed %d step %d (%s): %v", seqSeed, step, f, err)
						}
						assertDifferential(t, p, fmt.Sprintf("seed %d step %d %s", seqSeed, step, f))
					}
				})
			}
		})
	}
}
