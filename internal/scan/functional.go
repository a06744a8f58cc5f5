package scan

import (
	"errors"
	"fmt"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/sta"
)

// ErrForeignPlacement is returned (wrapped) when the placement handed to
// the DFT editor belongs to another netlist than the plan's die.
var ErrForeignPlacement = errors.New("scan: placement belongs to another netlist")

// functionalEdit is the functional-mode view of a plan, described as an
// edit of the base die:
//
//   - gates appended after the base gates, so every base signal keeps its
//     SignalID (test_en first, then each control group's cell, buffers
//     and pad muxes, then each observe group's fold and capture cells);
//   - every base gate pin and output port reading an inbound TSV pad
//     moves to the pad's test mux (padMux);
//   - every reused capture flip-flop's D pin moves to its capture mux
//     (dMux), after the pad moves.
//
// ApplyFunctionalMode materializes the edit as a Netlist;
// TimeFunctionalMode applies it to the base die's flat graph. Both build
// the same circuit, pin for pin.
type functionalEdit struct {
	base     *netlist.Netlist
	lib      *cells.Library
	buffered bool

	added  []addedGate
	coords []place.Point // base cells, then added cells
	padMux []rewire
	dMux   []rewire
	outSig []netlist.SignalID // every output port's signal after the edit
	testEn netlist.SignalID
	bufSeq int
}

// addedGate is one cell of the test hardware.
type addedGate struct {
	typ   netlist.GateType
	name  string
	fanin [3]netlist.SignalID
	nIn   int
}

func (g *addedGate) pins() []netlist.SignalID { return g.fanin[:g.nIn] }

// rewire moves readers of `from` (pad readers, or a flip-flop's D pin) to
// `to`.
type rewire struct{ from, to netlist.SignalID }

// newFunctionalEdit validates the plan and describes its functional view:
// control muxes sit at their TSV pads, observation XOR/muxes sit at their
// capture flip-flop, and dedicated wrapper cells sit at their TSV.
func newFunctionalEdit(n *netlist.Netlist, pl *place.Placement, lib *cells.Library, a *Assignment) (*functionalEdit, error) {
	if err := a.Validate(n); err != nil {
		return nil, err
	}
	if pl.Netlist != n {
		return nil, fmt.Errorf("%w: it places %q, the plan applies to %q", ErrForeignPlacement, pl.Netlist.Name, n.Name)
	}
	extra := 1 // test_en; buffers come on top
	for _, g := range a.Control {
		extra += len(g.TSVs) + 1
	}
	for _, g := range a.Observe {
		extra += len(g.Ports) + 3
	}
	e := &functionalEdit{
		base:     n,
		lib:      lib,
		buffered: a.BufferedRouting && lib != nil && lib.TestBufferDistUM > 0,
		added:    make([]addedGate, 0, extra),
		coords:   append(make([]place.Point, 0, len(pl.Coords)+extra), pl.Coords...),
		outSig:   make([]netlist.SignalID, len(n.Outputs)),
	}
	for i, o := range n.Outputs {
		e.outSig[i] = o.Signal
	}

	// One shared test-enable pad (tied off in functional mode, but its
	// mux load and delay are physically present).
	var err error
	if e.testEn, err = e.add(netlist.GateInput, TestEnableName, place.Point{X: 0, Y: 0}); err != nil {
		return nil, err
	}

	muxOf := make(map[netlist.SignalID]netlist.SignalID)
	for i, g := range a.Control {
		src := g.ReusedFF
		if !g.Reused() {
			// Dedicated wrapper cell at the first member pad.
			src, err = e.add(netlist.GateDFF, fmt.Sprintf("wcc%d", i), e.coords[g.TSVs[0]], g.TSVs[0])
			if err != nil {
				return nil, err
			}
		}
		for _, t := range g.TSVs {
			// MUX at the pad: functional path TSV→logic picks up one mux
			// stage; the control point picks up the mux pin plus the
			// wire out to the pad (repeatered under buffered routing).
			routed, err := e.bufRoute(src, e.coords[t])
			if err != nil {
				return nil, err
			}
			m, err := e.add(netlist.GateMux2, fmt.Sprintf("wcm%d_%s", i, n.NameOf(t)), e.coords[t], e.testEn, t, routed)
			if err != nil {
				return nil, err
			}
			e.padMux = append(e.padMux, rewire{t, m})
			muxOf[t] = m
			for oi, s := range e.outSig {
				if s == t {
					e.outSig[oi] = m
				}
			}
		}
	}
	for i, g := range a.Observe {
		// A reused flip-flop folds its taps in at its own cell; a
		// dedicated observation cell sits at the first member pad. Taps
		// add load on the observed signals.
		at := pl.OutCoords[g.Ports[0]]
		if g.Reused() {
			at = e.coords[g.ReusedFF]
		}
		folded := netlist.InvalidSignal
		for j, p := range g.Ports {
			sig, err := e.bufRoute(e.outSig[p], at)
			if err != nil {
				return nil, err
			}
			if folded == netlist.InvalidSignal {
				folded = sig
				continue
			}
			if folded, err = e.add(netlist.GateXor, fmt.Sprintf("wobx%d_%d", i, j), at, folded, sig); err != nil {
				return nil, err
			}
		}
		if g.Reused() {
			origD := n.Gate(g.ReusedFF).Fanin[0]
			if m, ok := muxOf[origD]; ok {
				origD = m // the D pin read a pad, and now reads its mux
			}
			x, err := e.add(netlist.GateXor, fmt.Sprintf("wobf%d", i), at, origD, folded)
			if err != nil {
				return nil, err
			}
			m, err := e.add(netlist.GateMux2, fmt.Sprintf("wobm%d", i), at, e.testEn, origD, x)
			if err != nil {
				return nil, err
			}
			e.dMux = append(e.dMux, rewire{g.ReusedFF, m})
			continue
		}
		// Like a reused flip-flop, the dedicated cell captures through a
		// test-enable mux — functional signoff ties test_en low, so the
		// fold chain is a test-mode path, not a functional one.
		hold, err := e.add(netlist.GateConst0, fmt.Sprintf("wcoz%d", i), at)
		if err != nil {
			return nil, err
		}
		m, err := e.add(netlist.GateMux2, fmt.Sprintf("wcom%d", i), at, e.testEn, hold, folded)
		if err != nil {
			return nil, err
		}
		if _, err := e.add(netlist.GateDFF, fmt.Sprintf("wco%d", i), at, m); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// add appends a cell at the given point and returns its SignalID. The
// generated names never collide with one another (each family has its own
// prefix and index), so checking them against the base die's names is all
// Netlist.AddGate would check, and it fails the same way.
func (e *functionalEdit) add(typ netlist.GateType, name string, at place.Point, fanin ...netlist.SignalID) (netlist.SignalID, error) {
	if _, dup := e.base.SignalByName(name); dup {
		return netlist.InvalidSignal, fmt.Errorf("%w: signal %q", netlist.ErrDuplicateName, name)
	}
	g := addedGate{typ: typ, name: name}
	g.nIn = copy(g.fanin[:], fanin)
	e.added = append(e.added, g)
	e.coords = append(e.coords, at)
	return netlist.SignalID(e.base.NumGates() + len(e.added) - 1), nil
}

// bufRoute carries a signal from its cell to a destination point,
// inserting repeaters every TestBufferDistUM when the plan requested
// buffered routing. Returns the signal to connect at the far end.
func (e *functionalEdit) bufRoute(src netlist.SignalID, to place.Point) (netlist.SignalID, error) {
	if !e.buffered {
		return src, nil
	}
	from := e.coords[src]
	hops := int(from.ManhattanTo(to) / e.lib.TestBufferDistUM)
	for h := 1; h <= hops; h++ {
		frac := float64(h) / float64(hops+1)
		at := place.Point{
			X: from.X + (to.X-from.X)*frac,
			Y: from.Y + (to.Y-from.Y)*frac,
		}
		b, err := e.add(netlist.GateBuf, fmt.Sprintf("tbuf%d", e.bufSeq), at, src)
		if err != nil {
			return netlist.InvalidSignal, err
		}
		e.bufSeq++
		src = b
	}
	return src, nil
}

// graph applies the edit to a copy of the base die's flat graph.
func (e *functionalEdit) graph() *netlist.Graph {
	bg := e.base.Graph()
	nBase := bg.NumGates()
	edges := len(bg.Fanin)
	for i := range e.added {
		edges += e.added[i].nIn
	}
	g := &netlist.Graph{
		Types:    make([]netlist.GateType, nBase+len(e.added)),
		FaninOff: make([]int32, nBase+len(e.added)+1),
		Fanin:    make([]netlist.SignalID, edges),
	}
	copy(g.Types, bg.Types)
	copy(g.FaninOff, bg.FaninOff)
	copy(g.Fanin, bg.Fanin)
	for _, r := range e.padMux {
		for _, fo := range bg.FanoutOf(r.from) {
			pins := g.Fanin[g.FaninOff[fo]:g.FaninOff[fo+1]]
			for k, f := range pins {
				if f == r.from {
					pins[k] = r.to
				}
			}
		}
	}
	for _, r := range e.dMux {
		g.Fanin[g.FaninOff[r.from]] = r.to
	}
	pos := len(bg.Fanin)
	for i := range e.added {
		a := &e.added[i]
		g.Types[nBase+i] = a.typ
		pos += copy(g.Fanin[pos:], a.pins())
		g.FaninOff[nBase+i+1] = int32(pos)
	}
	g.Derive()
	return g
}

// ApplyFunctionalMode builds the functional view with the test hardware in
// place, and extends the placement with coordinates for the new cells:
// control muxes sit at their TSV pads, observation XOR/muxes sit at their
// capture flip-flop, and dedicated wrapper cells sit at their TSV.
// The returned placement belongs to the returned netlist.
func ApplyFunctionalMode(n *netlist.Netlist, pl *place.Placement, lib *cells.Library, a *Assignment) (*netlist.Netlist, *place.Placement, error) {
	e, err := newFunctionalEdit(n, pl, lib, a)
	if err != nil {
		return nil, nil, err
	}
	fn := n.Clone()
	fn.Name = n.Name + "_func"
	for i := range e.added {
		g := &e.added[i]
		if _, err := fn.AddGate(g.typ, g.name, g.pins()...); err != nil {
			return nil, nil, err
		}
	}
	base := n.Graph()
	for _, r := range e.padMux {
		for _, fo := range base.FanoutOf(r.from) {
			fg := fn.Gate(fo)
			for pin, f := range fg.Fanin {
				if f == r.from {
					fg.Fanin[pin] = r.to
				}
			}
		}
	}
	for _, r := range e.dMux {
		fn.Gate(r.from).Fanin[0] = r.to
	}
	for oi, s := range e.outSig {
		fn.Outputs[oi].Signal = s
	}
	if err := fn.Validate(); err != nil {
		return nil, nil, fmt.Errorf("scan: functional-mode netlist invalid: %w", err)
	}
	npl := &place.Placement{
		Netlist:   fn,
		Width:     pl.Width,
		Height:    pl.Height,
		Coords:    e.coords,
		OutCoords: append([]place.Point(nil), pl.OutCoords...),
	}
	return fn, npl, nil
}

// TimeFunctionalMode runs static timing on the plan's functional view —
// the circuit ApplyFunctionalMode builds, timed with test_en tied low at
// the given clock — without materializing it: the edit is applied to a
// copy of the base die's flat graph, so no Netlist, name index or Gate is
// copied. Signals keep ApplyFunctionalMode's SignalIDs (the base die's
// come first), and every per-signal figure equals ApplyFunctionalMode
// followed by sta.Analyze bit for bit. For the same bad input it fails
// with the same error. The Result's Netlist is nil; its placement holds
// the view's coordinates and no Netlist.
func TimeFunctionalMode(n *netlist.Netlist, pl *place.Placement, lib *cells.Library, a *Assignment, clockPS float64) (*sta.Result, error) {
	e, err := newFunctionalEdit(n, pl, lib, a)
	if err != nil {
		return nil, err
	}
	g := e.graph()
	if err := g.CheckAcyclic(n.Name + "_func"); err != nil {
		return nil, fmt.Errorf("scan: functional-mode netlist invalid: %w", err)
	}
	outs := append([]netlist.Output(nil), n.Outputs...)
	for oi, s := range e.outSig {
		outs[oi].Signal = s
	}
	return sta.AnalyzeGraph(g, outs, lib, sta.Config{
		ClockPS:   clockPS,
		Placement: &place.Placement{Width: pl.Width, Height: pl.Height, Coords: e.coords, OutCoords: pl.OutCoords},
		TieLow:    []netlist.SignalID{e.testEn},
	})
}
