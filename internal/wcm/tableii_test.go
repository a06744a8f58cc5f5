package wcm_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wcm3d/internal/experiments"
	"wcm3d/internal/netgen"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcm"
)

var update = flag.Bool("update", false, "rewrite testdata/tableii-seed1.json")

// pinnedPlan is one die's entry in testdata/tableii-seed1.json.
type pinnedPlan struct {
	Cells  int              `json:"cells"`
	Reused int              `json:"reused"`
	Hash   string           `json:"assignment_fnv64a"`
	Phases []wcm.PhaseStats `json:"phases"`
}

// assignmentHash is an FNV-64a hash over a plan's full content: every
// control group (reused flip-flop, TSVs in order), every observe group
// (reused flip-flop, ports in order) and the routing flag. Two plans share
// a hash only if they are identical for every practical purpose.
func assignmentHash(a *scan.Assignment) string {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(v)))
		h.Write(buf[:])
	}
	put(len(a.Control))
	for _, g := range a.Control {
		put(int(g.ReusedFF))
		put(len(g.TSVs))
		for _, t := range g.TSVs {
			put(int(t))
		}
	}
	put(len(a.Observe))
	for _, g := range a.Observe {
		put(int(g.ReusedFF))
		put(len(g.Ports))
		for _, p := range g.Ports {
			put(p)
		}
	}
	if a.BufferedRouting {
		put(1)
	} else {
		put(0)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// tableIIProfiles returns the Table II profiles a test covers: the b11,
// b12 and b20 families by default, all 24 dies under WCM3D_FULL_EQUIV=1
// (and always when rewriting the fixture).
func tableIIProfiles() []netgen.Profile {
	if *update || os.Getenv("WCM3D_FULL_EQUIV") != "" {
		return netgen.ITC99Profiles()
	}
	var ps []netgen.Profile
	for _, c := range []string{"b11", "b12", "b20"} {
		ps = append(ps, netgen.ITC99Circuit(c)...)
	}
	return ps
}

// ourTightOptions is the paper's own method under the tight timing
// scenario — the configuration behind Table II.
func ourTightOptions(d *experiments.Die) wcm.Options {
	return experiments.OurOptions(d, true)
}

// TestTableIIPlansPinned pins the plan of every Table II die at seed 1 —
// cells, reused flip-flops, an FNV-64a hash of the assignment and the
// per-phase graph statistics — to a fixture recorded before the sparse
// cone kernel and the bulk graph build replaced the dense sweep. Any
// change to cone masking, edge admission, graph construction or pair
// selection that moves a single group shows up here. Rerun with -update
// only for an intentional change.
func TestTableIIPlansPinned(t *testing.T) {
	golden := filepath.Join("testdata", "tableii-seed1.json")
	var want map[string]pinnedPlan
	if !*update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", golden, err)
		}
		if len(want) != len(netgen.ITC99Profiles()) {
			t.Errorf("%s holds %d dies, want %d", golden, len(want), len(netgen.ITC99Profiles()))
		}
	}
	got := map[string]pinnedPlan{}
	for _, p := range tableIIProfiles() {
		d, err := experiments.PrepareDie(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		res, err := wcm.Run(d.Input(), ourTightOptions(d))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		pp := pinnedPlan{
			Cells:  res.AdditionalCells,
			Reused: res.ReusedFFs,
			Hash:   assignmentHash(res.Assignment),
			Phases: res.Phases,
		}
		got[p.Name()] = pp
		if *update {
			continue
		}
		if w, ok := want[p.Name()]; !ok {
			t.Errorf("%s: missing from %s", p.Name(), golden)
		} else if !reflect.DeepEqual(pp, w) {
			t.Errorf("%s: plan moved (rerun with -update only if intentional):\n got %+v\nwant %+v", p.Name(), pp, w)
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
	}
}

// TestSparseKernelMatchesFullWidth is the differential gate of the sparse
// cone kernel: on every pair the edge sweep visits, in both phases of
// every covered Table II die, the sparse intersection count of the masked
// cones equals the full-width masked scans it replaced.
func TestSparseKernelMatchesFullWidth(t *testing.T) {
	for _, p := range tableIIProfiles() {
		d, err := experiments.PrepareDie(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		pairs, err := wcm.SweepKernelCheck(d.Input(), ourTightOptions(d))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if pairs == 0 {
			t.Fatalf("%s: the sweep visited no pairs", p.Name())
		}
		t.Logf("%s: %d pairs", p.Name(), pairs)
	}
}
