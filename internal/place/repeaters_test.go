package place

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"wcm3d/internal/cells"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
)

// repTestSrc forces long nets: inputs on the west edge, outputs far east,
// with a coarse TSV pitch blowing the die up.
const repTestSrc = `
INPUT(a)
INPUT(b)
TSV_IN(t0)
TSV_IN(t1)
TSV_IN(t2)
TSV_IN(t3)
TSV_IN(t4)
TSV_IN(t5)
TSV_IN(t6)
TSV_IN(t7)
TSV_IN(t8)
n1 = AND(a, t0)
n2 = OR(n1, b)
n3 = XOR(n2, t8)
q = DFF(n3)
n4 = NAND(q, n1)
OUTPUT(z) = n4
TSV_OUT(u0) = n2
`

func repTestDie(t *testing.T) (*netlist.Netlist, *Placement) {
	t.Helper()
	return placeRepSrc(t, repTestSrc)
}

func placeRepSrc(t *testing.T, src string) (*netlist.Netlist, *Placement) {
	t.Helper()
	n, err := netlist.ParseString("rep", src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Place(n, Options{Seed: 2, TSVPitchUM: 150})
	if err != nil {
		t.Fatal(err)
	}
	return n, pl
}

func TestInsertRepeatersBoundsSegments(t *testing.T) {
	n, pl := repTestDie(t)
	lib := cells.Default45nm()
	before := n.NumGates()
	if err := InsertRepeaters(n, pl, lib); err != nil {
		t.Fatal(err)
	}
	if n.NumGates() <= before {
		t.Fatal("a die spanning several segments must need repeaters")
	}
	if len(pl.Coords) != n.NumGates() {
		t.Fatalf("placement has %d coords for %d gates", len(pl.Coords), n.NumGates())
	}
	// Post-pass invariant: no pin is farther than one segment from its
	// driver (ports excluded; they get their own chains).
	for i := range n.Gates {
		id := netlist.SignalID(i)
		g := n.Gate(id)
		if g.Type.IsSource() {
			continue
		}
		for _, src := range g.Fanin {
			if d := pl.Distance(src, id); d > lib.TestBufferDistUM*1.0001 {
				t.Errorf("pin of %s still %.1f µm from driver %s", n.NameOf(id), d, n.NameOf(src))
			}
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRepeatersPreservesFunction(t *testing.T) {
	n, pl := repTestDie(t)
	// Snapshot behaviour before.
	assign := map[netlist.SignalID]bool{}
	for i := range n.Gates {
		id := netlist.SignalID(i)
		switch n.TypeOf(id) {
		case netlist.GateInput, netlist.GateTSVIn, netlist.GateDFF:
			assign[id] = i%2 == 0
		}
	}
	wantVals, err := n.Evaluate(assign)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, o := range n.Outputs {
		want[o.Name] = wantVals[o.Signal]
	}
	if err := InsertRepeaters(n, pl, cells.Default45nm()); err != nil {
		t.Fatal(err)
	}
	gotVals, err := n.Evaluate(assign) // sources kept their IDs
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range n.Outputs {
		if gotVals[o.Signal] != want[o.Name] {
			t.Errorf("output %q changed by buffering", o.Name)
		}
	}
}

func TestInsertRepeatersNoopOnSmallDie(t *testing.T) {
	n, err := netlist.ParseString("small", "INPUT(a)\nz = NOT(a)\nOUTPUT(z)\n")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Place(n, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := n.NumGates()
	if err := InsertRepeaters(n, pl, cells.Default45nm()); err != nil {
		t.Fatal(err)
	}
	// A 2-gate die is far smaller than a buffer segment: nothing added
	// except possibly for the input-to-gate run (inputs sit on the
	// edge). Allow at most one.
	if n.NumGates() > before+1 {
		t.Errorf("tiny die gained %d gates", n.NumGates()-before)
	}
}

func TestInsertRepeatersNaming(t *testing.T) {
	n, pl := repTestDie(t)
	if err := InsertRepeaters(n, pl, cells.Default45nm()); err != nil {
		t.Fatal(err)
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		if strings.HasPrefix(g.Name, "fbuf") && g.Type != netlist.GateBuf {
			t.Errorf("repeater %s has type %s", g.Name, g.Type)
		}
	}
}

func TestInsertRepeatersForeignPlacement(t *testing.T) {
	n, _ := repTestDie(t)
	other, pl2 := repTestDie(t)
	_ = other
	if err := InsertRepeaters(n, pl2, cells.Default45nm()); err == nil {
		t.Error("foreign placement must be rejected")
	}
}

// clonePlaced returns a deep copy of a placed die.
func clonePlaced(n *netlist.Netlist, pl *Placement) (*netlist.Netlist, *Placement) {
	c := n.Clone()
	cp := *pl
	cp.Netlist = c
	cp.Coords = slices.Clone(pl.Coords)
	cp.OutCoords = slices.Clone(pl.OutCoords)
	return c, &cp
}

// sameBuffered reports the first difference between two buffered dies:
// gate types, names and fanins, outputs, and every coordinate bit for bit.
func sameBuffered(a *netlist.Netlist, apl *Placement, b *netlist.Netlist, bpl *Placement) error {
	if a.NumGates() != b.NumGates() {
		return fmt.Errorf("%d gates, reference %d", b.NumGates(), a.NumGates())
	}
	for i := range a.Gates {
		ga, gb := &a.Gates[i], &b.Gates[i]
		if ga.Type != gb.Type || ga.Name != gb.Name || !slices.Equal(ga.Fanin, gb.Fanin) {
			return fmt.Errorf("gate %d: %s %q %v, reference %s %q %v", i, gb.Type, gb.Name, gb.Fanin, ga.Type, ga.Name, ga.Fanin)
		}
		if id, ok := b.SignalByName(gb.Name); !ok || int(id) != i {
			return fmt.Errorf("gate %d: name index has %q at %d (%v)", i, gb.Name, id, ok)
		}
	}
	if !slices.Equal(a.Outputs, b.Outputs) {
		return fmt.Errorf("outputs %v, reference %v", b.Outputs, a.Outputs)
	}
	if !slices.Equal(apl.Coords, bpl.Coords) || !slices.Equal(apl.OutCoords, bpl.OutCoords) {
		return fmt.Errorf("coordinates differ")
	}
	return nil
}

// TestInsertRepeatersMatchesReference holds the bulk repeater pass to the
// one-AddGate-per-buffer reference on generated dies, placed as
// experiments.PrepareNetlist places them: b11, b12 and b20 by default, all
// 24 Table II dies under WCM3D_FULL_EQUIV=1.
func TestInsertRepeatersMatchesReference(t *testing.T) {
	var profiles []netgen.Profile
	if os.Getenv("WCM3D_FULL_EQUIV") != "" {
		profiles = netgen.ITC99Profiles()
	} else {
		for _, c := range []string{"b11", "b12", "b20"} {
			profiles = append(profiles, netgen.ITC99Circuit(c)...)
		}
	}
	lib := cells.Default45nm()
	for _, p := range profiles {
		n, err := netgen.Generate(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := Place(n, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		bn, bpl := clonePlaced(n, pl)
		if err := insertRepeatersRef(n, pl, lib); err != nil {
			t.Fatalf("%s: reference: %v", p.Name(), err)
		}
		if err := InsertRepeaters(bn, bpl, lib); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := sameBuffered(n, pl, bn, bpl); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// TestInsertRepeatersSkipsTakenNames buffers a die that already has
// signals named fbuf0 and fbuf2: the repeaters take fbuf1, fbuf3, fbuf4,
// ... and are otherwise the reference's, run on the die without those
// names.
func TestInsertRepeatersSkipsTakenNames(t *testing.T) {
	ref, rpl := repTestDie(t)
	n, pl := placeRepSrc(t, strings.NewReplacer("n1", "fbuf0", "n3", "fbuf2").Replace(repTestSrc))
	lib := cells.Default45nm()
	before := n.NumGates()
	if err := insertRepeatersRef(ref, rpl, lib); err != nil {
		t.Fatal(err)
	}
	if err := InsertRepeaters(n, pl, lib); err != nil {
		t.Fatal(err)
	}
	if n.NumGates() < before+3 || n.NumGates() != ref.NumGates() {
		t.Fatalf("%d gates after buffering, reference %d (from %d)", n.NumGates(), ref.NumGates(), before)
	}
	for k, want := range []string{"fbuf1", "fbuf3", "fbuf4"} {
		if got := n.NameOf(netlist.SignalID(before + k)); got != want {
			t.Errorf("repeater %d named %q, want %q", k, got, want)
		}
	}
	for i := range n.Gates {
		id := netlist.SignalID(i)
		if got, ok := n.SignalByName(n.NameOf(id)); !ok || got != id {
			t.Errorf("name index has %q at %d, want %d", n.NameOf(id), got, id)
		}
		if !slices.Equal(n.Gates[i].Fanin, ref.Gates[i].Fanin) || n.Gates[i].Type != ref.Gates[i].Type {
			t.Fatalf("gate %d wired %v, reference %v", i, n.Gates[i].Fanin, ref.Gates[i].Fanin)
		}
	}
	for i := range n.Outputs {
		if n.Outputs[i].Signal != ref.Outputs[i].Signal {
			t.Errorf("output %d reads %d, reference %d", i, n.Outputs[i].Signal, ref.Outputs[i].Signal)
		}
	}
	if !slices.Equal(pl.Coords, rpl.Coords) {
		t.Error("coordinates differ from the reference")
	}
}

// TestInsertRepeatersErrorLeavesDieUntouched hands the pass a die with a
// combinational loop: it must fail and leave the netlist and placement as
// they were.
func TestInsertRepeatersErrorLeavesDieUntouched(t *testing.T) {
	n, pl := repTestDie(t)
	n1, _ := n.SignalByName("n1")
	n2, _ := n.SignalByName("n2")
	if err := n.RewireFanin(n1, 1, n2); err != nil {
		t.Fatal(err)
	}
	want, wantPl := clonePlaced(n, pl)
	if err := InsertRepeaters(n, pl, cells.Default45nm()); !errors.Is(err, netlist.ErrCycle) {
		t.Fatalf("got %v, want a cycle error", err)
	}
	if err := sameBuffered(want, wantPl, n, pl); err != nil {
		t.Error(err)
	}
}
