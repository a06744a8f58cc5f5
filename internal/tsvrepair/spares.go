package tsvrepair

import (
	"fmt"
	"strings"

	"wcm3d/internal/experiments"
	"wcm3d/internal/netlist"
)

// Spare-site naming. Discovery is by prefix, so dies parsed from .bench
// files can declare their own spares with the same names.
const (
	// SpareInPrefix names inbound spare landing pads ("spare_in0", ...).
	SpareInPrefix = "spare_in"
	// SpareOutPrefix names outbound spare ports ("spare_out0", ...).
	SpareOutPrefix = "spare_out"
	// spareSrcPrefix names the inert drivers parked on unpromoted
	// outbound spare ports.
	spareSrcPrefix = "spare_src"
)

// SpareSpec configures how many spare TSV sites a die carries per side.
type SpareSpec struct {
	Inbound  int `json:"inbound"`
	Outbound int `json:"outbound"`
}

// AddSpares materializes spare TSV sites on an unprepared netlist —
// before placement and timing, so the sites get real coordinates and the
// signoff analysis includes them. An inbound spare is a plain input pad
// with no fanout (floating until a repair promotes it to a TSV landing
// pad); an outbound spare is a plain output port parked on an inert
// constant driver (a repair rewires it onto the failed port's signal and
// promotes it). Promotion retypes and rewires only: no gate or port is
// ever added after preparation, which is what keeps the replan session's
// caches valid.
func AddSpares(n *netlist.Netlist, spec SpareSpec) error {
	if spec.Inbound < 0 || spec.Outbound < 0 {
		return fmt.Errorf("tsvrepair: negative spare count %+v", spec)
	}
	for i := 0; i < spec.Inbound; i++ {
		if _, err := n.AddGate(netlist.GateInput, fmt.Sprintf("%s%d", SpareInPrefix, i)); err != nil {
			return fmt.Errorf("tsvrepair: adding inbound spare: %w", err)
		}
	}
	for i := 0; i < spec.Outbound; i++ {
		src, err := n.AddGate(netlist.GateConst0, fmt.Sprintf("%s%d", spareSrcPrefix, i))
		if err != nil {
			return fmt.Errorf("tsvrepair: adding outbound spare driver: %w", err)
		}
		if err := n.AddOutput(fmt.Sprintf("%s%d", SpareOutPrefix, i), src, netlist.PortPO); err != nil {
			return fmt.Errorf("tsvrepair: adding outbound spare port: %w", err)
		}
	}
	return nil
}

// CloneDie deep-copies the mutable state of a prepared die — the netlist,
// plus the Placement and Timing views that point at it — so a repair
// session can patch TSV wiring without corrupting a shared original (the
// wcmd service hands cached dies to concurrent jobs). The frozen payload
// is shared: coordinate slices, timing arrays, the library and the fault
// universes. That is sound because repairs rewire pins and retype pads
// but never move cells; phase-one slacks stay the pre-repair signoff
// (spare sites were part of it) and the cross-phase refresh re-times the
// patched die exactly.
func CloneDie(d *experiments.Die) *experiments.Die {
	n := d.Netlist.Clone()
	c := &experiments.Die{
		Profile:    d.Profile,
		Netlist:    n,
		Lib:        d.Lib,
		ClockPS:    d.ClockPS,
		MarginPS:   d.MarginPS,
		StuckAt:    d.StuckAt,
		Transition: d.Transition,
	}
	if d.Placement != nil {
		pl := *d.Placement
		pl.Netlist = n
		c.Placement = &pl
	}
	if d.Timing != nil {
		t := *d.Timing
		t.Netlist = n
		c.Timing = &t
	}
	return c
}

// spareSites scans a die for unpromoted spare sites, in name order.
func spareSites(n *netlist.Netlist) (inbound []netlist.SignalID, outbound []int) {
	for i := range n.Gates {
		id := netlist.SignalID(i)
		if n.TypeOf(id) == netlist.GateInput && strings.HasPrefix(n.NameOf(id), SpareInPrefix) {
			inbound = append(inbound, id)
		}
	}
	for i, o := range n.Outputs {
		if o.Class == netlist.PortPO && strings.HasPrefix(o.Name, SpareOutPrefix) {
			outbound = append(outbound, i)
		}
	}
	return inbound, outbound
}
