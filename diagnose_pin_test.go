package wcm3d_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"wcm3d"
)

// TestDiagnosePinned pins Diagnose's full ranked list — every candidate's
// fault, matched, missed and extra counts, in rank order — for the
// scenario examples/diagnosis plays: b12/Die0 at seed 1 wrapped by the
// paper's method under tight timing, the full-budget stuck-at pattern set,
// and the first detectable fault drawn by a rand.Source seeded with 11.
// Any change to fault simulation, the signature loop or the ranking that
// moves one count or one rank shows up here.
func TestDiagnosePinned(t *testing.T) {
	die, err := wcm3d.PrepareDie(wcm3d.CircuitProfiles("b12")[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := wcm3d.Minimize(die, wcm3d.MethodOurs, wcm3d.TightTiming)
	if err != nil {
		t.Fatal(err)
	}
	patterns, _, err := wcm3d.GeneratePatterns(die, plan.Assignment, wcm3d.DefaultBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var truth wcm3d.Fault
	var syn *wcm3d.Syndrome
	for tries := 0; tries < 50 && syn == nil; tries++ {
		truth = die.StuckAt[rng.Intn(len(die.StuckAt))]
		s, err := wcm3d.SimulateDefect(die, plan.Assignment, truth, patterns)
		if err != nil {
			t.Fatal(err)
		}
		if s.FailCount() > 0 {
			syn = s
		}
	}
	if syn == nil {
		t.Fatal("no detectable defect among 50 draws")
	}
	ranked, err := wcm3d.Diagnose(die, plan.Assignment, patterns, syn)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, c := range ranked {
		fmt.Fprintf(h, "%d/%d %d %d %d\n", c.Fault.Gate, c.Fault.StuckAt, c.Matched, c.Missed, c.Extra)
	}
	got := fmt.Sprintf("%d patterns, truth %s, %d failing, %d candidates, fnv64a %016x",
		len(patterns), truth.Describe(die.Netlist), syn.FailCount(), len(ranked), h.Sum64())
	const want = "90 patterns, truth g78/out s-a-1, 61 failing, 1135 candidates, fnv64a 81460e8017757f69"
	if got != want {
		t.Errorf("ranked list moved:\n got %s\nwant %s", got, want)
	}
}
