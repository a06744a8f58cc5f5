package scan

import (
	"errors"
	"math"
	"testing"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/sta"
)

// TestTimeFunctionalModeRewiresPadReaders covers the wiring the Table II
// dies do not exercise: ports and a reused flip-flop's D pin that read an
// inbound TSV pad directly must move to the pad's mux in the flat view as
// in the materialized netlist, bit for bit.
func TestTimeFunctionalModeRewiresPadReaders(t *testing.T) {
	n, err := netlist.ParseString("pads", `
INPUT(a)
TSV_IN(t0)
TSV_IN(t1)
q = DFF(t0)
g = AND(a, t1)
r = DFF(g)
OUTPUT(z) = t0
TSV_OUT(o0) = t1
TSV_OUT(o1) = g
`)
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default45nm()
	pl, err := place.Place(n, place.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	id := func(s string) netlist.SignalID { i, _ := n.SignalByName(s); return i }
	tsvOut := n.OutboundTSVs()
	a := &Assignment{
		BufferedRouting: true,
		Control:         []ControlGroup{{ReusedFF: id("r"), TSVs: []netlist.SignalID{id("t0"), id("t1")}}},
		Observe: []ObserveGroup{
			{ReusedFF: id("q"), Ports: tsvOut[:1]},
			{ReusedFF: netlist.InvalidSignal, Ports: tsvOut[1:]},
		},
	}
	fn, fpl, err := ApplyFunctionalMode(n, pl, lib, a)
	if err != nil {
		t.Fatal(err)
	}
	// The pad readers moved to the pad muxes before the capture mux was
	// spliced in, so the capture mux keeps the pad mux on its D path.
	fid := func(s string) netlist.SignalID { i, _ := fn.SignalByName(s); return i }
	if d := fn.Gate(fid("wobm0")).Fanin[1]; d != fid("wcm0_t0") {
		t.Errorf("wobm0 keeps %s as q's functional D, want wcm0_t0", fn.NameOf(d))
	}
	if z := fn.Outputs[0].Signal; z != fid("wcm0_t0") {
		t.Errorf("z observes %s, want wcm0_t0", fn.NameOf(z))
	}
	te, _ := fn.SignalByName(TestEnableName)
	want, err := sta.Analyze(fn, lib, sta.Config{ClockPS: 500, Placement: fpl, TieLow: []netlist.SignalID{te}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TimeFunctionalMode(n, pl, lib, a, 500)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2][]float64{
		"LoadFF":     {got.LoadFF, want.LoadFF},
		"DelayPS":    {got.DelayPS, want.DelayPS},
		"ArrivalPS":  {got.ArrivalPS, want.ArrivalPS},
		"RequiredPS": {got.RequiredPS, want.RequiredPS},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %d signals, want %d", name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Errorf("%s[%s] = %v, want %v", name, fn.NameOf(netlist.SignalID(i)), pair[0][i], pair[1][i])
			}
		}
	}
}

// TestTimeFunctionalModeErrorParity feeds TimeFunctionalMode and
// ApplyFunctionalMode the same bad inputs: both must fail with the same
// error, matching the sentinel under errors.Is and word for word.
func TestTimeFunctionalModeErrorParity(t *testing.T) {
	lib := cells.Default45nm()
	placed := func(t *testing.T, n *netlist.Netlist) *place.Placement {
		t.Helper()
		// A coarse TSV pitch spreads the pads, so a star of pads on one
		// flip-flop needs repeaters.
		pl, err := place.Place(n, place.Options{Seed: 8, TSVPitchUM: 120})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	// star reuses one flip-flop for every inbound TSV, with buffered
	// routing: the view gets a tbuf chain per distant pad.
	star := func(n *netlist.Netlist) *Assignment {
		return &Assignment{
			BufferedRouting: true,
			Control:         []ControlGroup{{ReusedFF: n.FlipFlops()[0], TSVs: n.InboundTSVs()}},
			Observe:         []ObserveGroup{{ReusedFF: netlist.InvalidSignal, Ports: n.OutboundTSVs()}},
		}
	}
	// taken is the die with one extra signal under a name the view
	// generates.
	taken := func(name func(n *netlist.Netlist) string) func(t *testing.T) (*netlist.Netlist, *place.Placement, *Assignment) {
		return func(t *testing.T) (*netlist.Netlist, *place.Placement, *Assignment) {
			n := die(t)
			n.MustAddGate(netlist.GateInput, name(n))
			return n, placed(t, n), star(n)
		}
	}
	cases := []struct {
		name  string
		setup func(t *testing.T) (*netlist.Netlist, *place.Placement, *Assignment)
		want  error
	}{
		{"invalid plan", func(t *testing.T) (*netlist.Netlist, *place.Placement, *Assignment) {
			n := die(t)
			a := FullWrap(n)
			a.Control = append(a.Control, ControlGroup{ReusedFF: netlist.InvalidSignal})
			return n, placed(t, n), a
		}, ErrInvalidPlan},
		{"placement of another netlist", func(t *testing.T) (*netlist.Netlist, *place.Placement, *Assignment) {
			n := die(t)
			return n, placed(t, n.Clone()), FullWrap(n)
		}, ErrForeignPlacement},
		{"test_en taken", taken(func(*netlist.Netlist) string { return TestEnableName }), netlist.ErrDuplicateName},
		{"tbuf0 taken", taken(func(*netlist.Netlist) string { return "tbuf0" }), netlist.ErrDuplicateName},
		{"wcm0_<tsv> taken", taken(func(n *netlist.Netlist) string {
			return "wcm0_" + n.NameOf(n.InboundTSVs()[0])
		}), netlist.ErrDuplicateName},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, pl, a := c.setup(t)
			_, _, want := ApplyFunctionalMode(n, pl, lib, a)
			_, got := TimeFunctionalMode(n, pl, lib, a, 1e6)
			if !errors.Is(want, c.want) {
				t.Fatalf("ApplyFunctionalMode: %v, want %v", want, c.want)
			}
			if !errors.Is(got, c.want) {
				t.Fatalf("TimeFunctionalMode: %v, want %v", got, c.want)
			}
			if got.Error() != want.Error() {
				t.Errorf("TimeFunctionalMode: %q, ApplyFunctionalMode: %q", got, want)
			}
		})
	}
}
