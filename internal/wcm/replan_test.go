package wcm

import (
	"reflect"
	"testing"

	"wcm3d/internal/netlist"
)

// assertSessionRun certifies the session against its reference: the memoized
// run must be deeply equal — plan, phase statistics, counters, everything —
// to a from-scratch Run over the same input.
func assertSessionRun(t *testing.T, s *Session, tag string) *Result {
	t.Helper()
	got, err := s.Run()
	if err != nil {
		t.Fatalf("%s: session run: %v", tag, err)
	}
	want, err := Run(s.Input(), s.Options())
	if err != nil {
		t.Fatalf("%s: reference run: %v", tag, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: session result diverges from from-scratch run\nsession:   %+v\nreference: %+v", tag, got, want)
	}
	return got
}

// movePins rewires every pin driven by `from` onto `to` and invalidates the
// two source-anchored cones the move dirties.
func movePins(t *testing.T, s *Session, from, to netlist.SignalID) {
	t.Helper()
	n := s.Input().Netlist
	sinks := append([]netlist.SignalID(nil), n.Graph().FanoutOf(from)...)
	for _, g := range sinks {
		fanin := n.Gate(g).Fanin
		for pin := range fanin {
			if fanin[pin] == from {
				if err := n.RewireFanin(g, pin, to); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s.InvalidateSource(from)
	s.InvalidateSource(to)
}

// repairInbound simulates a spare-TSV repair on the control side: the failed
// pad's pins move to the spare, the failed pad demotes to a plain input and
// the spare promotes to an inbound TSV.
func repairInbound(t *testing.T, s *Session, failed, spare netlist.SignalID) {
	t.Helper()
	n := s.Input().Netlist
	movePins(t, s, failed, spare)
	if err := n.RetypeSource(failed, netlist.GateInput); err != nil {
		t.Fatal(err)
	}
	if err := n.RetypeSource(spare, netlist.GateTSVIn); err != nil {
		t.Fatal(err)
	}
}

// firstPlainInput returns a GateInput pad to play the spare.
func firstPlainInput(t *testing.T, n *netlist.Netlist) netlist.SignalID {
	t.Helper()
	for i := range n.Gates {
		if id := netlist.SignalID(i); n.TypeOf(id) == netlist.GateInput {
			return id
		}
	}
	t.Fatal("die has no plain input pad")
	return netlist.InvalidSignal
}

func TestSessionMatchesRunUnchanged(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 31)
	opts := DefaultOptions()
	opts.Workers = 2
	s := NewSession(in, opts)
	assertSessionRun(t, s, "cold")
	slots1, verd1 := s.MemoStats()
	if slots1 == 0 || verd1 == 0 {
		t.Fatalf("first run must seed the memo, got %d slots / %d verdicts", slots1, verd1)
	}
	assertSessionRun(t, s, "warm")
	slots2, verd2 := s.MemoStats()
	if slots2 != slots1 || verd2 != verd1 {
		t.Errorf("identical rerun must not grow the memo: %d/%d -> %d/%d", slots1, verd1, slots2, verd2)
	}
	assertSessionRun(t, s, "warm-2")
}

func TestSessionMatchesRunAfterInboundRepair(t *testing.T) {
	in := prep(t, 400, 16, 10, 10, 33)
	opts := DefaultOptions()
	opts.Workers = 4
	s := NewSession(in, opts)
	assertSessionRun(t, s, "baseline")

	n := in.Netlist
	failed := n.InboundTSVs()[0]
	spare := firstPlainInput(t, n)
	repairInbound(t, s, failed, spare)
	assertSessionRun(t, s, "post-repair")
	assertSessionRun(t, s, "post-repair-warm")
}

func TestSessionMatchesRunAfterOutboundRepair(t *testing.T) {
	in := prep(t, 400, 16, 10, 10, 35)
	opts := DefaultOptions()
	opts.Workers = 1
	s := NewSession(in, opts)
	assertSessionRun(t, s, "baseline")

	// Observation-side repair: the failed TSV_OUT port demotes to a plain
	// PO; a PO port takes over observing its signal as the promoted spare.
	n := in.Netlist
	failedPort := n.OutboundTSVs()[0]
	sparePort := -1
	for i, o := range n.Outputs {
		if o.Class == netlist.PortPO {
			sparePort = i
			break
		}
	}
	if sparePort < 0 {
		t.Fatal("die has no PO port to promote")
	}
	sig := n.Outputs[failedPort].Signal
	if err := n.SetPortClass(failedPort, netlist.PortPO); err != nil {
		t.Fatal(err)
	}
	if err := n.SetPortClass(sparePort, netlist.PortTSVOut); err != nil {
		t.Fatal(err)
	}
	if err := n.RewireOutput(sparePort, sig); err != nil {
		t.Fatal(err)
	}
	// Port rewires move no gate pins: every cached cone stays valid and no
	// invalidation is required.
	assertSessionRun(t, s, "post-repair")
}

// A spare can serve different faults across a sequence (repair, undo,
// repair elsewhere). Its anchored cone differs each time it is promoted, so
// the InvalidateSource obligation is what keeps the memo honest — this is
// the staleness scenario a round-trip repair alone cannot expose.
func TestSessionSpareReassignedAcrossSequence(t *testing.T) {
	in := prep(t, 400, 16, 10, 10, 37)
	opts := DefaultOptions()
	opts.Workers = 2
	s := NewSession(in, opts)
	assertSessionRun(t, s, "baseline")

	n := in.Netlist
	tsvs := n.InboundTSVs()
	t1, t2 := tsvs[0], tsvs[1]
	spare := firstPlainInput(t, n)

	repairInbound(t, s, t1, spare) // spare carries t1's subtree
	assertSessionRun(t, s, "repair-t1")

	repairInbound(t, s, spare, t1) // undo: pins return, types swap back
	assertSessionRun(t, s, "undo-t1")

	repairInbound(t, s, t2, spare) // same spare, different subtree
	assertSessionRun(t, s, "repair-t2")
}

// The memoized path must stay bit-identical at every worker count, like the
// plain path — verdict cache reads happen in the parallel sweep, writes only
// in the serial apply pass.
func TestSessionDeterministicAcrossWorkers(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 39)
	var ref *Result
	for _, w := range []int{1, 2, 8} {
		opts := DefaultOptions()
		opts.Workers = w
		s := NewSession(in, opts)
		got := assertSessionRun(t, s, "cold")
		got = assertSessionRun(t, s, "warm")
		got.Options.Workers = 0 // normalize the only field workers may differ in
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d session plan differs from workers=1", w)
		}
	}
}
