package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"wcm3d/internal/atpg"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netgen"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcm"
)

var update = flag.Bool("update", false, "rewrite testdata/atpg-seed1.json")

// pinnedATPG is one entry of testdata/atpg-seed1.json: the outcome of one
// ATPG run on one wrapped die.
type pinnedATPG struct {
	Detected   int `json:"detected"`
	Untestable int `json:"untestable"`
	Aborted    int `json:"aborted"`
	// Random counts the faults the random phase caught. Only stuck-at
	// runs report it.
	Random   int    `json:"random_detected,omitempty"`
	Patterns int    `json:"patterns"`
	Hash     string `json:"patterns_fnv64a"`
}

// patternHash is an FNV-64a hash over every pattern's source bits, in
// pattern order, eight sources to a byte.
func patternHash(ns int, patterns []faultsim.Pattern) string {
	h := fnv.New64a()
	buf := make([]byte, (ns+7)/8)
	for _, p := range patterns {
		clear(buf)
		for j := 0; j < ns; j++ {
			if p.Get(j) {
				buf[j/8] |= 1 << (j % 8)
			}
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// atpgPinCase is one die's share of the pinned runs.
type atpgPinCase struct {
	profile netgen.Profile
	agrawal bool // also pin Agrawal's plan
	full    bool // also pin the full budget
}

// atpgPinCases returns the pinned runs: b11 and b12 under both methods and
// both budgets by default; under WCM3D_FULL_EQUIV=1 (and always when
// rewriting the fixture) also b18-b22 under our method at the reduced
// budget.
func atpgPinCases() []atpgPinCase {
	var cs []atpgPinCase
	for _, c := range []string{"b11", "b12"} {
		for _, p := range netgen.ITC99Circuit(c) {
			cs = append(cs, atpgPinCase{profile: p, agrawal: true, full: true})
		}
	}
	if *update || os.Getenv("WCM3D_FULL_EQUIV") != "" {
		for _, c := range []string{"b18", "b20", "b21", "b22"} {
			for _, p := range netgen.ITC99Circuit(c) {
				cs = append(cs, atpgPinCase{profile: p})
			}
		}
	}
	return cs
}

// atpgPinEntries is the fixture's size: 8 small dies × 2 methods × 2
// models × 2 budgets, plus 16 large dies × 2 models.
const atpgPinEntries = 8*2*2*2 + 16*2

// pinATPG runs stuck-at and transition ATPG on the die wrapped by asn
// under budget and adds both outcomes to got under prefix.
func pinATPG(t *testing.T, got map[string]pinnedATPG, prefix string, d *Die, asn *scan.Assignment, budget ATPGBudget) {
	t.Helper()
	tn, err := scan.ApplyTestMode(d.Netlist, asn)
	if err != nil {
		t.Fatalf("%s: %v", prefix, err)
	}
	ns := faultsim.New(tn).NumSources()
	sa, err := atpg.Run(tn, d.StuckAt, budget)
	if err != nil {
		t.Fatalf("%s stuck-at: %v", prefix, err)
	}
	got[prefix+" stuck-at"] = pinnedATPG{
		Detected:   sa.Detected,
		Untestable: sa.Untestable,
		Aborted:    sa.Aborted,
		Random:     sa.RandomDetected,
		Patterns:   sa.PatternCount(),
		Hash:       patternHash(ns, sa.Patterns),
	}
	tr, err := atpg.RunTransition(tn, d.Transition, budget)
	if err != nil {
		t.Fatalf("%s transition: %v", prefix, err)
	}
	vectors := make([]faultsim.Pattern, 0, 2*len(tr.Pairs))
	for _, pr := range tr.Pairs {
		vectors = append(vectors, pr.V1, pr.V2)
	}
	got[prefix+" transition"] = pinnedATPG{
		Detected:   tr.Detected,
		Untestable: tr.Untestable,
		Aborted:    tr.Aborted,
		Patterns:   tr.PatternCount(),
		Hash:       patternHash(ns, vectors),
	}
}

// TestATPGOutputsPinned pins stuck-at and transition ATPG on wrapped dies
// at seed 1 — detected, untestable, aborted and random-phase counts, the
// pattern count and an FNV-64a hash of the pattern set — to a fixture
// recorded before the ATPG engines moved onto netlist.Graph. Any change
// to fault simulation, SCOAP, PODEM's implication or search order, or the
// test-mode netlist that moves one pattern bit shows up here. Rerun with
// -update only for an intentional change.
func TestATPGOutputsPinned(t *testing.T) {
	golden := filepath.Join("testdata", "atpg-seed1.json")
	var want map[string]pinnedATPG
	if !*update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", golden, err)
		}
		if len(want) != atpgPinEntries {
			t.Errorf("%s holds %d entries, want %d", golden, len(want), atpgPinEntries)
		}
	}
	tight := Scenario{Name: "tight", Tight: true}
	got := map[string]pinnedATPG{}
	for _, c := range atpgPinCases() {
		d, err := PrepareDie(c.profile, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.profile.Name(), err)
		}
		methods := []string{"ours"}
		if c.agrawal {
			methods = append(methods, "agrawal")
		}
		for _, m := range methods {
			opts := OurOptions(d, tight)
			if m == "agrawal" {
				opts = AgrawalOptions(d, tight)
			}
			res, err := wcm.Run(d.Input(), opts)
			if err != nil {
				t.Fatalf("%s %s: %v", c.profile.Name(), m, err)
			}
			prefix := c.profile.Name() + " " + m
			pinATPG(t, got, prefix+" reduced", d, res.Assignment, ReducedBudget(1))
			if c.full {
				pinATPG(t, got, prefix+" full", d, res.Assignment, DefaultBudget(1))
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: missing from %s", k, golden)
		} else if g != w {
			t.Errorf("%s: ATPG outcome moved (rerun with -update only if intentional):\n got %+v\nwant %+v", k, g, w)
		}
	}
}
