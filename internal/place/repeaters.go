package place

import (
	"fmt"
	"slices"
	"strings"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
)

// InsertRepeaters performs the post-placement buffering pass a physical
// synthesis flow runs: every net segment longer than the library's
// repeater spacing gets a chain of buffers along its route, so no driver
// sees more than one segment of wire capacitance and wire delay grows
// linearly with distance. The netlist and placement are extended in place;
// existing SignalIDs are preserved (buffers are appended). Repeaters take
// the lowest fbuf<i> names the netlist leaves free. On error the netlist
// and placement are left as they were.
//
// Runs are buffered gate by gate, pin by pin, then port by port: each
// run's chain takes the next SignalIDs, from its driver toward its sink.
// The runs are counted first, so the buffers are appended in one step and
// the sinks rewired after it.
func InsertRepeaters(n *netlist.Netlist, pl *Placement, lib *cells.Library) error {
	if pl.Netlist != n {
		return fmt.Errorf("place: placement belongs to %q, buffering %q", pl.Netlist.Name, n.Name)
	}
	seg := lib.TestBufferDistUM
	if seg <= 0 {
		return nil
	}
	// Buffering keeps a valid netlist valid, so checking the input up
	// front is the only check that can fail.
	if err := n.Validate(); err != nil {
		return err
	}

	// eachRun calls visit for every pin of an original gate, then every
	// output port, whose driver sits more than a segment away (a run),
	// with the number of buffers its chain takes; for a port, gate is
	// InvalidSignal and pin the port's index.
	nGates := n.NumGates()
	eachRun := func(visit func(gate netlist.SignalID, pin int, src netlist.SignalID, to Point, hops int)) {
		for gi := 0; gi < nGates; gi++ {
			g := &n.Gates[gi]
			if g.Type.IsSource() {
				continue
			}
			to := pl.Coords[gi]
			for pin, src := range g.Fanin {
				if dist := pl.Coords[src].ManhattanTo(to); dist > seg {
					visit(netlist.SignalID(gi), pin, src, to, int(dist/seg))
				}
			}
		}
		for oi, o := range n.Outputs {
			if dist := pl.Coords[o.Signal].ManhattanTo(pl.OutCoords[oi]); dist > seg {
				visit(netlist.InvalidSignal, oi, o.Signal, pl.OutCoords[oi], int(dist/seg))
			}
		}
	}
	total := 0
	eachRun(func(_ netlist.SignalID, _ int, _ netlist.SignalID, _ Point, hops int) { total += hops })
	if total == 0 {
		return nil
	}

	taken := map[string]bool{}
	for i := range n.Gates {
		if name := n.Gates[i].Name; strings.HasPrefix(name, "fbuf") {
			taken[name] = true
		}
	}
	names := netlist.NumberedNames("fbuf", total, taken)
	first := netlist.SignalID(nGates)
	bufs := make([]netlist.Gate, total)
	fanin := make([]netlist.SignalID, total)
	coords := slices.Grow(pl.Coords, total)
	k := 0
	eachRun(func(_ netlist.SignalID, _ int, src netlist.SignalID, to Point, hops int) {
		from := pl.Coords[src]
		for h := 1; h <= hops; h++ {
			frac := float64(h) / float64(hops+1)
			coords = append(coords, Point{X: from.X + (to.X-from.X)*frac, Y: from.Y + (to.Y-from.Y)*frac})
			fanin[k] = src
			bufs[k] = netlist.Gate{Type: netlist.GateBuf, Name: names[k], Fanin: fanin[k : k+1 : k+1]}
			src = first + netlist.SignalID(k)
			k++
		}
	})
	if _, err := n.AppendGates(bufs); err != nil {
		return err
	}
	pl.Coords = coords
	// Each sink now reads its chain's last buffer. AppendGates has marked
	// the derived graph stale, so the pins are written directly.
	last := first - 1
	eachRun(func(gate netlist.SignalID, pin int, _ netlist.SignalID, _ Point, hops int) {
		last += netlist.SignalID(hops)
		if gate != netlist.InvalidSignal {
			n.Gates[gate].Fanin[pin] = last
		} else {
			n.Outputs[pin].Signal = last
		}
	})
	return nil
}
