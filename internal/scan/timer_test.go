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

// materialize times the plan the way the timer must match: the functional
// netlist ApplyFunctionalMode builds, analyzed with test_en tied low.
func materialize(n *netlist.Netlist, pl *place.Placement, lib *cells.Library, a *Assignment, clockPS float64) (*sta.Result, error) {
	fn, fpl, err := ApplyFunctionalMode(n, pl, lib, a)
	if err != nil {
		return nil, err
	}
	te, _ := fn.SignalByName(TestEnableName)
	return sta.Analyze(fn, lib, sta.Config{ClockPS: clockPS, Placement: fpl, TieLow: []netlist.SignalID{te}})
}

// requireSameBits fails the test at the first signal whose figure differs
// between two analyses under math.Float64bits.
func requireSameBits(t *testing.T, label string, got, want *sta.Result) {
	t.Helper()
	for name, pair := range map[string][2][]float64{
		"LoadFF":     {got.LoadFF, want.LoadFF},
		"DelayPS":    {got.DelayPS, want.DelayPS},
		"ArrivalPS":  {got.ArrivalPS, want.ArrivalPS},
		"RequiredPS": {got.RequiredPS, want.RequiredPS},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %s covers %d signals, want %d", label, name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestFunctionalTimerReusedErrorParity builds one timer per die that
// carries a name the test hardware can generate, and reuses it: every Time
// call on a plan that generates the name fails as ApplyFunctionalMode
// does, word for word, and a plan that does not generate it still times
// bit for bit like the materialized view.
func TestFunctionalTimerReusedErrorParity(t *testing.T) {
	lib := cells.Default45nm()
	// star reuses one flip-flop for every inbound TSV; under buffered
	// routing the view gets a tbuf chain per distant pad.
	star := func(n *netlist.Netlist, buffered bool) *Assignment {
		return &Assignment{
			BufferedRouting: buffered,
			Control:         []ControlGroup{{ReusedFF: n.FlipFlops()[0], TSVs: n.InboundTSVs()}},
			Observe:         []ObserveGroup{{ReusedFF: netlist.InvalidSignal, Ports: n.OutboundTSVs()}},
		}
	}
	cases := []struct {
		name  string
		taken func(n *netlist.Netlist) string
		// clean is a plan that does not generate the taken name; nil when
		// every plan does.
		clean func(n *netlist.Netlist) *Assignment
	}{
		{"test_en taken", func(*netlist.Netlist) string { return TestEnableName }, nil},
		{"tbuf0 taken", func(*netlist.Netlist) string { return "tbuf0" },
			func(n *netlist.Netlist) *Assignment { return star(n, false) }},
		{"wcm0_<tsv> taken", func(n *netlist.Netlist) string { return "wcm0_" + n.NameOf(n.InboundTSVs()[0]) },
			func(n *netlist.Netlist) *Assignment {
				// Group 0 holds every pad but the first, so its muxes
				// are named after the others.
				a := star(n, true)
				tsvs := n.InboundTSVs()
				a.Control = []ControlGroup{
					{ReusedFF: n.FlipFlops()[0], TSVs: tsvs[1:]},
					{ReusedFF: netlist.InvalidSignal, TSVs: tsvs[:1]},
				}
				return a
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := die(t)
			n.MustAddGate(netlist.GateInput, c.taken(n))
			pl, err := place.Place(n, place.Options{Seed: 8, TSVPitchUM: 120})
			if err != nil {
				t.Fatal(err)
			}
			timer := NewFunctionalTimer(n, pl, lib)
			for call := 0; call < 2; call++ {
				_, _, want := ApplyFunctionalMode(n, pl, lib, star(n, true))
				_, got := timer.Time(star(n, true), 1e6)
				if !errors.Is(want, netlist.ErrDuplicateName) || !errors.Is(got, netlist.ErrDuplicateName) {
					t.Fatalf("call %d: timer %v, ApplyFunctionalMode %v, want %v", call, got, want, netlist.ErrDuplicateName)
				}
				if got.Error() != want.Error() {
					t.Errorf("call %d: timer %q, ApplyFunctionalMode %q", call, got, want)
				}
				if c.clean == nil {
					continue
				}
				want2, err := materialize(n, pl, lib, c.clean(n), 1e6)
				if err != nil {
					t.Fatal(err)
				}
				got2, err := timer.Time(c.clean(n), 1e6)
				if err != nil {
					t.Fatalf("call %d: clean plan: %v", call, err)
				}
				requireSameBits(t, c.name, got2, want2)
			}
		})
	}
}

// TestFunctionalTimerCycleErrorParity times a die whose logic has a loop:
// the timer must fail as ApplyFunctionalMode's validation does, counting
// the same ordered gates, including test hardware downstream of the loop.
func TestFunctionalTimerCycleErrorParity(t *testing.T) {
	lib := cells.Default45nm()
	n := die(t)
	in := n.Inputs()
	a1 := n.MustAddGate(netlist.GateAnd, "loop_a", in[0], in[1])
	a2 := n.MustAddGate(netlist.GateAnd, "loop_b", a1, in[1])
	pl, err := place.Place(n, place.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Close the loop, and have an outbound TSV observe it, so the fold
	// and capture cells the plan adds there cannot be ordered either.
	if err := n.RewireFanin(a1, 0, a2); err != nil {
		t.Fatal(err)
	}
	if err := n.RewireOutput(n.OutboundTSVs()[0], a2); err != nil {
		t.Fatal(err)
	}
	asn := FullWrap(n)
	_, _, want := ApplyFunctionalMode(n, pl, lib, asn)
	_, got := NewFunctionalTimer(n, pl, lib).Time(asn, 1e6)
	if !errors.Is(want, netlist.ErrCycle) || !errors.Is(got, netlist.ErrCycle) {
		t.Fatalf("timer %v, ApplyFunctionalMode %v, want %v", got, want, netlist.ErrCycle)
	}
	if got.Error() != want.Error() {
		t.Errorf("timer %q, ApplyFunctionalMode %q", got, want)
	}
}
