package place

import (
	"fmt"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
)

// insertRepeatersRef is the one-AddGate-per-buffer repeater pass that
// InsertRepeaters replaced, kept as the reference its bulk insertion is
// held to. It names buffers fbuf0, fbuf1, ... without skipping taken names.
func insertRepeatersRef(n *netlist.Netlist, pl *Placement, lib *cells.Library) error {
	if pl.Netlist != n {
		return fmt.Errorf("place: placement belongs to %q, buffering %q", pl.Netlist.Name, n.Name)
	}
	seg := lib.TestBufferDistUM
	if seg <= 0 {
		return nil
	}
	bufSeq := 0
	route := func(src netlist.SignalID, to Point) (netlist.SignalID, error) {
		from := pl.Coords[src]
		dist := from.ManhattanTo(to)
		hops := int(dist / seg)
		for h := 1; h <= hops; h++ {
			frac := float64(h) / float64(hops+1)
			at := Point{X: from.X + (to.X-from.X)*frac, Y: from.Y + (to.Y-from.Y)*frac}
			b, err := n.AddGate(netlist.GateBuf, fmt.Sprintf("fbuf%d", bufSeq), src)
			if err != nil {
				return netlist.InvalidSignal, err
			}
			bufSeq++
			pl.Coords = append(pl.Coords, at)
			src = b
		}
		return src, nil
	}

	// Snapshot the original gate count: buffers must not be re-buffered.
	nGates := n.NumGates()
	for gi := 0; gi < nGates; gi++ {
		id := netlist.SignalID(gi)
		g := n.Gate(id)
		if g.Type.IsSource() {
			continue
		}
		for pin := 0; pin < len(g.Fanin); pin++ {
			src := g.Fanin[pin]
			if pl.Coords[src].ManhattanTo(pl.Coords[id]) <= seg {
				continue
			}
			routed, err := route(src, pl.Coords[id])
			if err != nil {
				return err
			}
			if err := n.RewireFanin(id, pin, routed); err != nil {
				return err
			}
		}
	}
	for oi := range n.Outputs {
		src := n.Outputs[oi].Signal
		if pl.Coords[src].ManhattanTo(pl.OutCoords[oi]) <= seg {
			continue
		}
		routed, err := route(src, pl.OutCoords[oi])
		if err != nil {
			return err
		}
		if err := n.RewireOutput(oi, routed); err != nil {
			return err
		}
	}
	return n.Validate()
}
