package scan

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

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
// FunctionalTimer applies it to the base die's flat graph and prices.
// Both build the same circuit, pin for pin.
type functionalEdit struct {
	base     *netlist.Netlist
	lib      *cells.Library
	buffered bool

	added []addedGate
	// nControl counts the control side of added: test_en and every
	// control group's cell, buffers and pad muxes. They read only
	// sources and flip-flops, or one another.
	nControl int
	pl       *place.Placement
	addedAt  []place.Point // added cells' coordinates
	coords   []place.Point // base cells, then added cells (once complete)
	padMux   []rewire
	dMux     []rewire
	outSig   []netlist.SignalID // every output port's signal after the edit
	testEn   netlist.SignalID
	bufSeq   int
}

// addedGate is one cell of the test hardware. Its name is kept as a
// family and indices, and formatted only where a netlist needs it.
type addedGate struct {
	typ   netlist.GateType
	fam   nameFamily
	nIn   uint8
	i, j  int32
	fanin [3]netlist.SignalID
}

func (g *addedGate) pins() []netlist.SignalID { return g.fanin[:g.nIn] }

// nameFamily is how an added cell is named: its family's prefix, then its
// group index (a test buffer's sequence number), then for a pad mux the
// pad's name and for a fold XOR the member's index.
type nameFamily uint8

const (
	famTestEn nameFamily = iota // test_en
	famWCC                      // wcc<i>: dedicated control cell
	famWCM                      // wcm<i>_<pad>: pad mux
	famTBuf                     // tbuf<i>: test-routing repeater
	famWOBX                     // wobx<i>_<j>: fold XOR
	famWOBF                     // wobf<i>: capture XOR
	famWOBM                     // wobm<i>: capture mux
	famWCOZ                     // wcoz<i>: dedicated cell's hold value
	famWCOM                     // wcom<i>: dedicated cell's capture mux
	famWCO                      // wco<i>: dedicated observation cell
)

var famPrefix = [...]string{TestEnableName, "wcc", "wcm", "tbuf", "wobx", "wobf", "wobm", "wcoz", "wcom", "wco"}

// name formats an added cell's name. The families' prefixes and indices
// keep the names distinct from one another, so only a base signal can
// take one.
func (e *functionalEdit) name(g *addedGate) string {
	switch g.fam {
	case famTestEn:
		return TestEnableName
	case famWCM:
		return fmt.Sprintf("wcm%d_%s", g.i, e.base.NameOf(netlist.SignalID(g.j)))
	case famWOBX:
		return fmt.Sprintf("wobx%d_%d", g.i, g.j)
	}
	return famPrefix[g.fam] + strconv.Itoa(int(g.i))
}

// famStart marks the first bytes of the families' prefixes.
var famStart = func() (m [256]bool) {
	for _, p := range famPrefix {
		m[p[0]] = true
	}
	return m
}()

// generatable reports whether some plan could name an added cell name:
// whether it starts with a family's prefix.
func generatable(name string) bool {
	if name == "" || !famStart[name[0]] {
		return false
	}
	for _, p := range famPrefix {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// rewire moves readers of `from` (pad readers, or a flip-flop's D pin) to
// `to`.
type rewire struct{ from, to netlist.SignalID }

// newFunctionalEdit validates the plan and describes its functional view:
// control muxes sit at their TSV pads, observation XOR/muxes sit at their
// capture flip-flop, and dedicated wrapper cells sit at their TSV. Names
// are not checked here: see FunctionalTimer.Time and ApplyFunctionalMode.
func newFunctionalEdit(n *netlist.Netlist, pl *place.Placement, lib *cells.Library, a *Assignment) (*functionalEdit, error) {
	if err := a.Validate(n); err != nil {
		return nil, err
	}
	if pl.Netlist != n {
		return nil, fmt.Errorf("%w: it places %q, the plan applies to %q", ErrForeignPlacement, pl.Netlist.Name, n.Name)
	}
	if len(pl.Coords) < n.NumGates() || len(pl.OutCoords) < len(n.Outputs) {
		return nil, fmt.Errorf("scan: placement covers %d signals and %d ports, %q has %d and %d",
			len(pl.Coords), len(pl.OutCoords), n.Name, n.NumGates(), len(n.Outputs))
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
		pl:       pl,
		addedAt:  make([]place.Point, 0, extra),
		outSig:   make([]netlist.SignalID, len(n.Outputs)),
	}
	for i, o := range n.Outputs {
		e.outSig[i] = o.Signal
	}

	// One shared test-enable pad (tied off in functional mode, but its
	// mux load and delay are physically present).
	e.testEn = e.add(netlist.GateInput, famTestEn, 0, 0, place.Point{X: 0, Y: 0})

	muxOf := make(map[netlist.SignalID]netlist.SignalID)
	for i, g := range a.Control {
		src := g.ReusedFF
		if !g.Reused() {
			// Dedicated wrapper cell at the first member pad.
			src = e.add(netlist.GateDFF, famWCC, i, 0, e.at(g.TSVs[0]), g.TSVs[0])
		}
		for _, t := range g.TSVs {
			// MUX at the pad: functional path TSV→logic picks up one mux
			// stage; the control point picks up the mux pin plus the
			// wire out to the pad (repeatered under buffered routing).
			routed := e.bufRoute(src, e.at(t))
			m := e.add(netlist.GateMux2, famWCM, i, int(t), e.at(t), e.testEn, t, routed)
			e.padMux = append(e.padMux, rewire{t, m})
			muxOf[t] = m
		}
	}
	e.nControl = len(e.added)
	for oi, s := range e.outSig {
		if m, ok := muxOf[s]; ok {
			e.outSig[oi] = m // the port read a pad, and now reads its mux
		}
	}
	for i, g := range a.Observe {
		// A reused flip-flop folds its taps in at its own cell; a
		// dedicated observation cell sits at the first member pad. Taps
		// add load on the observed signals.
		at := pl.OutCoords[g.Ports[0]]
		if g.Reused() {
			at = e.at(g.ReusedFF)
		}
		folded := netlist.InvalidSignal
		for j, p := range g.Ports {
			sig := e.bufRoute(e.outSig[p], at)
			if folded == netlist.InvalidSignal {
				folded = sig
				continue
			}
			folded = e.add(netlist.GateXor, famWOBX, i, j, at, folded, sig)
		}
		if g.Reused() {
			origD := n.Gate(g.ReusedFF).Fanin[0]
			if m, ok := muxOf[origD]; ok {
				origD = m // the D pin read a pad, and now reads its mux
			}
			x := e.add(netlist.GateXor, famWOBF, i, 0, at, origD, folded)
			m := e.add(netlist.GateMux2, famWOBM, i, 0, at, e.testEn, origD, x)
			e.dMux = append(e.dMux, rewire{g.ReusedFF, m})
			continue
		}
		// Like a reused flip-flop, the dedicated cell captures through a
		// test-enable mux — functional signoff ties test_en low, so the
		// fold chain is a test-mode path, not a functional one.
		hold := e.add(netlist.GateConst0, famWCOZ, i, 0, at)
		m := e.add(netlist.GateMux2, famWCOM, i, 0, at, e.testEn, hold, folded)
		e.add(netlist.GateDFF, famWCO, i, 0, at, m)
	}
	e.coords = slices.Concat(pl.Coords[:n.NumGates()], e.addedAt)
	return e, nil
}

// at returns a cell's coordinates, base or added.
func (e *functionalEdit) at(id netlist.SignalID) place.Point {
	if nBase := netlist.SignalID(e.base.NumGates()); id >= nBase {
		return e.addedAt[id-nBase]
	}
	return e.pl.Coords[id]
}

// add appends a cell at the given point and returns its SignalID.
func (e *functionalEdit) add(typ netlist.GateType, fam nameFamily, i, j int, at place.Point, fanin ...netlist.SignalID) netlist.SignalID {
	g := addedGate{typ: typ, fam: fam, nIn: uint8(len(fanin)), i: int32(i), j: int32(j)}
	copy(g.fanin[:], fanin)
	e.added = append(e.added, g)
	e.addedAt = append(e.addedAt, at)
	return netlist.SignalID(e.base.NumGates() + len(e.added) - 1)
}

// bufRoute carries a signal from its cell to a destination point,
// inserting repeaters every TestBufferDistUM when the plan requested
// buffered routing. Returns the signal to connect at the far end.
func (e *functionalEdit) bufRoute(src netlist.SignalID, to place.Point) netlist.SignalID {
	if !e.buffered {
		return src
	}
	from := e.at(src)
	hops := int(from.ManhattanTo(to) / e.lib.TestBufferDistUM)
	for h := 1; h <= hops; h++ {
		frac := float64(h) / float64(hops+1)
		at := place.Point{
			X: from.X + (to.X-from.X)*frac,
			Y: from.Y + (to.Y-from.Y)*frac,
		}
		src = e.add(netlist.GateBuf, famTBuf, e.bufSeq, 0, at, src)
		e.bufSeq++
	}
	return src
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
		// AddGate refuses a name the base die already uses, with the
		// error FunctionalTimer.Time returns for it.
		if _, err := fn.AddGate(g.typ, e.name(g), g.pins()...); err != nil {
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

// FunctionalTimer times plans' functional views of one die — the circuit
// ApplyFunctionalMode builds, timed with test_en tied low — without
// materializing them. It is built once per die and holds what no plan
// changes: the base die's graph (fanin CSR, and topological order with
// its sources first), every base signal's load, every base fanin edge's
// and output port's wire delay, and the base names a generated name could
// collide with (normally none). Time then applies a plan's edit to copies
// of those arrays, re-prices only what the edit touches and runs the
// arrival and required passes. A FunctionalTimer is immutable, so
// concurrent callers may share it. It times the die as it was when built;
// Current reports whether the die has changed since.
type FunctionalTimer struct {
	n   *netlist.Netlist
	pl  *place.Placement
	lib *cells.Library

	g     *netlist.Graph
	ports []netlist.Output // n.Outputs at the build
	// nSrc counts the sources and flip-flops, which lead g.Order.
	nSrc   int
	prices *sta.Prices // nil when the placement does not fit the die
	// collide holds the base names some plan could give an added cell.
	collide map[string]bool
}

// NewFunctionalTimer builds the timer of a placed die.
func NewFunctionalTimer(n *netlist.Netlist, pl *place.Placement, lib *cells.Library) *FunctionalTimer {
	t := &FunctionalTimer{n: n, pl: pl, lib: lib, g: n.Graph(), ports: slices.Clone(n.Outputs)}
	for _, s := range t.g.Order {
		if typ := t.g.Types[s]; !typ.IsSource() && typ != netlist.GateDFF {
			break
		}
		t.nSrc++
	}
	if pl.Netlist == n && len(pl.Coords) >= n.NumGates() && len(pl.OutCoords) >= len(n.Outputs) {
		// A foreign or short placement fails every Time call before
		// prices are read.
		t.prices = sta.Price(t.g, t.ports, lib, pl)
	}
	for i := range n.Gates {
		if name := n.Gates[i].Name; generatable(name) {
			if t.collide == nil {
				t.collide = make(map[string]bool)
			}
			t.collide[name] = true
		}
	}
	return t
}

// Current reports whether t still times the die given by n, pl and lib:
// whether it was built from them, and the netlist has kept its
// connectivity (every gate edit makes it derive a new graph) and output
// ports since. Coordinates are read at the build only.
func (t *FunctionalTimer) Current(n *netlist.Netlist, pl *place.Placement, lib *cells.Library) bool {
	return t.n == n && t.pl == pl && t.lib == lib && n.Graph() == t.g &&
		slices.EqualFunc(t.ports, n.Outputs, func(a, b netlist.Output) bool {
			return a.Signal == b.Signal && a.Class == b.Class
		})
}

// Time runs static timing on the plan's functional view at the given
// clock. Signals keep ApplyFunctionalMode's SignalIDs (the base die's
// come first), and every per-signal figure equals ApplyFunctionalMode
// followed by sta.Analyze bit for bit. For the same bad input it fails
// with the same error. The Result's Netlist is nil; its placement holds
// the view's coordinates and no Netlist.
func (t *FunctionalTimer) Time(a *Assignment, clockPS float64) (*sta.Result, error) {
	e, err := newFunctionalEdit(t.n, t.pl, t.lib, a)
	if err != nil {
		return nil, err
	}
	if len(t.collide) > 0 {
		for i := range e.added {
			if name := e.name(&e.added[i]); t.collide[name] {
				return nil, fmt.Errorf("%w: signal %q", netlist.ErrDuplicateName, name)
			}
		}
	}
	if len(t.g.Order) < t.g.NumGates() {
		return nil, fmt.Errorf("scan: functional-mode netlist invalid: %w", e.cycleError(t.g))
	}
	g, outs, prices := t.view(e)
	pl := &place.Placement{Width: t.pl.Width, Height: t.pl.Height, Coords: e.coords, OutCoords: t.pl.OutCoords}
	readers, drivers := e.touched(t.g, g.NumGates())
	prices.Reprice(g, outs, t.lib, pl, readers, drivers)
	return sta.AnalyzePriced(g, outs, t.lib, sta.Config{
		ClockPS:   clockPS,
		Placement: pl,
		TieLow:    []netlist.SignalID{e.testEn},
	}, prices)
}

// view applies the edit to copies of the timer's graph and prices: the
// view's types, fanin CSR and order (no fanout CSR or levels), its output
// ports, and the base prices, still to be re-priced where the edit
// touched them. The order is the base order with the control side of the
// test hardware placed after the sources, which is all it reads, and the
// observe side appended: its cells feed only one another and flip-flop D
// pins.
func (t *FunctionalTimer) view(e *functionalEdit) (*netlist.Graph, []netlist.Output, *sta.Prices) {
	bg := t.g
	nBase := bg.NumGates()
	nAll := nBase + len(e.added)
	edges := len(bg.Fanin)
	for i := range e.added {
		edges += int(e.added[i].nIn)
	}
	g := &netlist.Graph{
		Types:    make([]netlist.GateType, nAll),
		FaninOff: make([]int32, nAll+1),
		Fanin:    make([]netlist.SignalID, edges),
		Order:    make([]netlist.SignalID, 0, nAll),
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
	g.Order = append(g.Order, bg.Order[:t.nSrc]...)
	for i := 0; i < e.nControl; i++ {
		g.Order = append(g.Order, netlist.SignalID(nBase+i))
	}
	g.Order = append(g.Order, bg.Order[t.nSrc:]...)
	for i := e.nControl; i < len(e.added); i++ {
		g.Order = append(g.Order, netlist.SignalID(nBase+i))
	}

	outs := slices.Clone(t.ports)
	for oi, s := range e.outSig {
		outs[oi].Signal = s
	}
	p := &sta.Prices{
		LoadFF:    make([]float64, nAll),
		WirePS:    make([]float64, edges),
		OutWirePS: slices.Clone(t.prices.OutWirePS),
	}
	copy(p.LoadFF, t.prices.LoadFF)
	copy(p.WirePS, t.prices.WirePS)
	return g, outs, p
}

// touched marks what the edit changes, as Prices.Reprice reads it. The
// drivers are the signals whose fanout or ports change: the pads (their
// readers and ports move to the muxes), the old drivers of reused capture
// flip-flops' D pins, every signal an added cell reads (tapped signals,
// control points, the muxes) and the added cells themselves. The readers
// are the gates whose fanin changes or is added (the pads' readers, the
// reused capture flip-flops, the added cells) and every other reader of a
// base driver.
func (e *functionalEdit) touched(base *netlist.Graph, nAll int) (readers, drivers []bool) {
	nBase := base.NumGates()
	readers, drivers = make([]bool, nAll), make([]bool, nAll)
	mark := func(d netlist.SignalID) {
		if drivers[d] {
			return
		}
		drivers[d] = true
		if int(d) < nBase {
			for _, r := range base.FanoutOf(d) {
				readers[r] = true
			}
		}
	}
	for _, r := range e.padMux {
		mark(r.from)
	}
	for _, r := range e.dMux {
		mark(base.Fanin[base.FaninOff[r.from]])
	}
	for i := range e.added {
		for _, f := range e.added[i].pins() {
			mark(f)
		}
		mark(netlist.SignalID(nBase + i))
		readers[nBase+i] = true
	}
	return readers, drivers
}

// cycleError is the error the view of a cyclic base die fails with: its
// order holds what the base order holds (a pad mux orders like its pad)
// plus every added cell whose fanin is ordered.
func (e *functionalEdit) cycleError(base *netlist.Graph) error {
	nBase := base.NumGates()
	ordered := make([]bool, nBase+len(e.added))
	for _, s := range base.Order {
		ordered[s] = true
	}
	count := len(base.Order)
	for i := range e.added {
		a := &e.added[i]
		ok := true
		if !a.typ.IsSource() && a.typ != netlist.GateDFF {
			for _, f := range a.pins() {
				ok = ok && ordered[f]
			}
		}
		ordered[nBase+i] = ok
		if ok {
			count++
		}
	}
	return netlist.CycleError(e.base.Name+"_func", count, len(ordered))
}

// TimeFunctionalMode times one plan's functional view:
// NewFunctionalTimer(n, pl, lib).Time(a, clockPS). Callers that time many
// plans on one die keep the timer instead.
func TimeFunctionalMode(n *netlist.Netlist, pl *place.Placement, lib *cells.Library, a *Assignment, clockPS float64) (*sta.Result, error) {
	return NewFunctionalTimer(n, pl, lib).Time(a, clockPS)
}
