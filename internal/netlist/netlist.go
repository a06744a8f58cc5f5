package netlist

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
)

// Netlist is a single die's gate-level circuit. Build one either with the
// Builder API below, with the .bench dialect parser (see Parse), or with
// the synthetic generator in internal/netgen.
//
// The zero value is an empty, usable netlist.
type Netlist struct {
	// Name labels the die (for example "b12_die2").
	Name string
	// Gates stores every cell; a gate's index is its SignalID.
	Gates []Gate
	// Outputs lists the die output ports (primary outputs and outbound
	// TSVs).
	Outputs []Output

	byName map[string]SignalID

	// graph is the flat connectivity (gate types, fanin and fanout CSR,
	// topological order, levels) every walker reads: built lazily and
	// invalidated by mutation.
	graph     *Graph
	derivedOK bool
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name, byName: make(map[string]SignalID)}
}

// ErrDuplicateName is returned when a signal or port name is reused.
var ErrDuplicateName = errors.New("netlist: duplicate name")

// ErrUnknownSignal is returned when a referenced signal does not exist.
var ErrUnknownSignal = errors.New("netlist: unknown signal")

// NumGates returns the total number of gates including pseudo-gates
// (inputs, TSV pads, constants).
func (n *Netlist) NumGates() int { return len(n.Gates) }

// Gate returns the gate driving the signal. The returned pointer stays
// valid until the next AddGate or AppendGates call.
func (n *Netlist) Gate(id SignalID) *Gate { return &n.Gates[id] }

// SignalByName looks a signal up by its output name.
func (n *Netlist) SignalByName(name string) (SignalID, bool) {
	id, ok := n.byName[name]
	return id, ok
}

// NameOf returns the signal's name.
func (n *Netlist) NameOf(id SignalID) string { return n.Gates[id].Name }

// TypeOf returns the driving gate's type.
func (n *Netlist) TypeOf(id SignalID) GateType { return n.Gates[id].Type }

// Valid reports whether id refers to a gate in this netlist.
func (n *Netlist) Valid(id SignalID) bool {
	return id >= 0 && int(id) < len(n.Gates)
}

// AddGate appends a gate and returns the SignalID of its output. It
// validates the name, the fanin count for the cell type, and every fanin
// reference.
func (n *Netlist) AddGate(typ GateType, name string, fanin ...SignalID) (SignalID, error) {
	if n.byName == nil {
		n.byName = make(map[string]SignalID)
	}
	// The name index never holds the empty name, so an empty name still
	// fails as such before any other check.
	if _, dup := n.byName[name]; dup {
		return InvalidSignal, fmt.Errorf("%w: signal %q", ErrDuplicateName, name)
	}
	if err := checkGate(typ, name, fanin, len(n.Gates)); err != nil {
		return InvalidSignal, err
	}
	id := SignalID(len(n.Gates))
	n.Gates = append(n.Gates, Gate{Type: typ, Name: name, Fanin: append([]SignalID(nil), fanin...)})
	n.byName[name] = id
	n.derivedOK = false
	return id, nil
}

// AppendGates appends a batch of gates as one AddGate call each would, in
// order, with the same checks, and returns the first one's SignalID. A
// gate's fanin may name an earlier gate of the batch. The netlist keeps
// the gates' Fanin slices instead of copying them. Gates and the name
// index grow once; on error the netlist is left as it was.
func (n *Netlist) AppendGates(gates []Gate) (SignalID, error) {
	first := len(n.Gates)
	byName := make(map[string]SignalID, len(n.byName)+len(gates))
	maps.Copy(byName, n.byName)
	for i := range gates {
		g := &gates[i]
		if err := checkGate(g.Type, g.Name, g.Fanin, first+i); err != nil {
			return InvalidSignal, err
		}
		// A taken name leaves the index's size unchanged; the overwritten
		// entry is harmless, as the index is dropped on error.
		size := len(byName)
		if byName[g.Name] = SignalID(first + i); len(byName) == size {
			return InvalidSignal, fmt.Errorf("%w: signal %q", ErrDuplicateName, g.Name)
		}
	}
	n.Gates = append(n.Gates, gates...)
	n.byName = byName
	n.derivedOK = false
	return SignalID(first), nil
}

// checkGate applies the checks every added gate passes: a name, a fanin
// count its type accepts, and fanin references to the limit gates before
// it.
func checkGate(typ GateType, name string, fanin []SignalID, limit int) error {
	if name == "" {
		return errors.New("netlist: empty gate name")
	}
	if min := typ.MinFanin(); len(fanin) < min {
		return fmt.Errorf("netlist: %s %q needs at least %d fanin, got %d", typ, name, min, len(fanin))
	}
	if max := typ.MaxFanin(); max >= 0 && len(fanin) > max {
		return fmt.Errorf("netlist: %s %q accepts at most %d fanin, got %d", typ, name, max, len(fanin))
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= limit {
			return fmt.Errorf("%w: fanin %d of %q", ErrUnknownSignal, f, name)
		}
	}
	return nil
}

// NumberedNames returns the first count names prefix<i>, i = 0, 1, ...,
// that taken does not hold, formatted into one buffer that they all slice.
func NumberedNames(prefix string, count int, taken map[string]bool) []string {
	buf := make([]byte, 0, count*(len(prefix)+len(strconv.Itoa(count))))
	ends := make([]int, count)
	for k, i := 0, 0; k < count; i++ {
		lo := len(buf)
		buf = strconv.AppendInt(append(buf, prefix...), int64(i), 10)
		if taken[string(buf[lo:])] {
			buf = buf[:lo]
			continue
		}
		ends[k] = len(buf)
		k++
	}
	all := string(buf)
	names := make([]string, count)
	lo := 0
	for k, hi := range ends {
		names[k] = all[lo:hi]
		lo = hi
	}
	return names
}

// MustAddGate is AddGate for construction code paths where the arguments
// are known to be valid (generators, tests). It panics on error.
func (n *Netlist) MustAddGate(typ GateType, name string, fanin ...SignalID) SignalID {
	id, err := n.AddGate(typ, name, fanin...)
	if err != nil {
		panic(err)
	}
	return id
}

// AddOutput declares a die output port observing the given signal.
func (n *Netlist) AddOutput(name string, sig SignalID, class PortClass) error {
	if name == "" {
		return errors.New("netlist: empty output name")
	}
	if !n.Valid(sig) {
		return fmt.Errorf("%w: output %q observes signal %d", ErrUnknownSignal, name, sig)
	}
	for _, o := range n.Outputs {
		if o.Name == name {
			return fmt.Errorf("%w: output %q", ErrDuplicateName, name)
		}
	}
	n.Outputs = append(n.Outputs, Output{Name: name, Signal: sig, Class: class})
	return nil
}

// RewireFanin replaces pin `pin` of gate `g` to be driven by `newSrc`.
// This is the primitive the DFT editor uses to splice test-mode muxes into
// an existing circuit.
func (n *Netlist) RewireFanin(g SignalID, pin int, newSrc SignalID) error {
	if !n.Valid(g) || !n.Valid(newSrc) {
		return ErrUnknownSignal
	}
	gate := &n.Gates[g]
	if pin < 0 || pin >= len(gate.Fanin) {
		return fmt.Errorf("netlist: gate %q has no pin %d", gate.Name, pin)
	}
	gate.Fanin[pin] = newSrc
	n.derivedOK = false
	return nil
}

// AppendFanin adds one more input pin to an n-ary gate (AND/OR/NAND/NOR/
// XOR/XNOR families). The generator's dead-logic mop-up uses it to widen a
// gate without displacing existing sources.
func (n *Netlist) AppendFanin(g SignalID, newSrc SignalID) error {
	if !n.Valid(g) || !n.Valid(newSrc) {
		return ErrUnknownSignal
	}
	gate := &n.Gates[g]
	if max := gate.Type.MaxFanin(); max >= 0 && len(gate.Fanin) >= max {
		return fmt.Errorf("netlist: %s %q cannot take another pin", gate.Type, gate.Name)
	}
	gate.Fanin = append(gate.Fanin, newSrc)
	n.derivedOK = false
	return nil
}

// RewireOutput repoints output port index `idx` at a new signal.
func (n *Netlist) RewireOutput(idx int, newSrc SignalID) error {
	if idx < 0 || idx >= len(n.Outputs) {
		return fmt.Errorf("netlist: no output index %d", idx)
	}
	if !n.Valid(newSrc) {
		return ErrUnknownSignal
	}
	n.Outputs[idx].Signal = newSrc
	n.derivedOK = false
	return nil
}

// RetypeSource changes a source gate's type to another source type —
// GateInput ↔ GateTSVIn — the primitive TSV repair uses to demote a
// failed pad out of the inbound set and promote a spare pad into it. The
// restriction to source types keeps every structural invariant trivially
// intact (sources take no fanin and drive whatever they already drive).
func (n *Netlist) RetypeSource(id SignalID, typ GateType) error {
	if !n.Valid(id) {
		return ErrUnknownSignal
	}
	if !n.Gates[id].Type.IsSource() || !typ.IsSource() {
		return fmt.Errorf("netlist: retype %q: %s -> %s is not a source-to-source change",
			n.Gates[id].Name, n.Gates[id].Type, typ)
	}
	n.Gates[id].Type = typ
	n.derivedOK = false
	return nil
}

// SetPortClass changes an output port's class (PortPO ↔ PortTSVOut) —
// how TSV repair moves a net between the outbound-TSV set and the plain
// primary outputs.
func (n *Netlist) SetPortClass(idx int, class PortClass) error {
	if idx < 0 || idx >= len(n.Outputs) {
		return fmt.Errorf("netlist: no output index %d", idx)
	}
	n.Outputs[idx].Class = class
	return nil
}

// Inputs returns the SignalIDs of all primary inputs (excluding TSV pads),
// in gate order.
func (n *Netlist) Inputs() []SignalID { return n.signalsOfType(GateInput) }

// InboundTSVs returns the SignalIDs of all inbound TSV landing pads.
func (n *Netlist) InboundTSVs() []SignalID { return n.signalsOfType(GateTSVIn) }

// FlipFlops returns the SignalIDs of all D flip-flops.
func (n *Netlist) FlipFlops() []SignalID { return n.signalsOfType(GateDFF) }

// OutboundTSVs returns the indices into Outputs of all outbound-TSV ports.
func (n *Netlist) OutboundTSVs() []int {
	var idx []int
	for i, o := range n.Outputs {
		if o.Class == PortTSVOut {
			idx = append(idx, i)
		}
	}
	return idx
}

// PrimaryOutputs returns the indices into Outputs of ordinary PO pads.
func (n *Netlist) PrimaryOutputs() []int {
	var idx []int
	for i, o := range n.Outputs {
		if o.Class == PortPO {
			idx = append(idx, i)
		}
	}
	return idx
}

// NumLogicGates counts combinational cells only — the "gate count" that
// Table II of the paper reports (inputs, TSV pads, constants and flip-flops
// excluded).
func (n *Netlist) NumLogicGates() int {
	c := 0
	for i := range n.Gates {
		if n.Gates[i].Type.IsCombinational() {
			c++
		}
	}
	return c
}

func (n *Netlist) signalsOfType(t GateType) []SignalID {
	var ids []SignalID
	for i := range n.Gates {
		if n.Gates[i].Type == t {
			ids = append(ids, SignalID(i))
		}
	}
	return ids
}

func (n *Netlist) ensureDerived() {
	if n.derivedOK {
		return
	}
	// A rebuild never writes into arrays an earlier caller may still hold:
	// every array of the new Graph is fresh.
	g := &Graph{
		Types:    make([]GateType, len(n.Gates)),
		FaninOff: make([]int32, len(n.Gates)+1),
	}
	edges := 0
	for i := range n.Gates {
		g.Types[i] = n.Gates[i].Type
		g.FaninOff[i] = int32(edges)
		edges += len(n.Gates[i].Fanin)
	}
	g.FaninOff[len(n.Gates)] = int32(edges)
	g.Fanin = make([]SignalID, 0, edges)
	for i := range n.Gates {
		g.Fanin = append(g.Fanin, n.Gates[i].Fanin...)
	}
	g.Derive()
	n.graph = g
	n.derivedOK = true
}

// Graph returns the netlist's connectivity in flat form. It is shared:
// do not mutate it. A later edit of the netlist leaves it untouched and
// derives a new one.
func (n *Netlist) Graph() *Graph {
	n.ensureDerived()
	return n.graph
}

// Validate checks structural invariants: every combinational gate reachable
// in topological order (no combinational cycles), unique names, legal fanin
// counts, and every output port observing a real signal. Generators and the
// DFT editor call this after construction.
func (n *Netlist) Validate() error {
	n.derivedOK = false
	n.ensureDerived()
	if err := n.graph.CheckAcyclic(n.Name); err != nil {
		return err
	}
	// Name uniqueness: when the name index covers every gate it is itself
	// the witness — AddGate refuses duplicate insertions and Clone copies
	// the index verbatim, so a full-size index can only exist if names are
	// unique. Hand-assembled netlists (no index, or one that fell behind
	// the Gates slice) pay for the explicit re-hash below.
	var seen map[string]struct{}
	if len(n.byName) != len(n.Gates) {
		seen = make(map[string]struct{}, len(n.Gates))
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		if g.Name == "" {
			return fmt.Errorf("netlist %q: gate %d (%s) has an empty name", n.Name, i, g.Type)
		}
		if seen != nil {
			if _, dup := seen[g.Name]; dup {
				return fmt.Errorf("netlist %q: %w: %q", n.Name, ErrDuplicateName, g.Name)
			}
			seen[g.Name] = struct{}{}
		}
		if min := g.Type.MinFanin(); len(g.Fanin) < min {
			return fmt.Errorf("netlist %q: gate %q (%s) has %d fanin, needs >= %d",
				n.Name, g.Name, g.Type, len(g.Fanin), min)
		}
		if max := g.Type.MaxFanin(); max >= 0 && len(g.Fanin) > max {
			return fmt.Errorf("netlist %q: gate %q (%s) has %d fanin, max %d",
				n.Name, g.Name, g.Type, len(g.Fanin), max)
		}
		for _, f := range g.Fanin {
			if !n.Valid(f) {
				return fmt.Errorf("netlist %q: gate %q references %w %d", n.Name, g.Name, ErrUnknownSignal, f)
			}
		}
	}
	seenPort := make(map[string]struct{}, len(n.Outputs))
	for _, o := range n.Outputs {
		if o.Name == "" {
			return fmt.Errorf("netlist %q: output port with empty name", n.Name)
		}
		if _, dup := seenPort[o.Name]; dup {
			return fmt.Errorf("netlist %q: %w: output %q", n.Name, ErrDuplicateName, o.Name)
		}
		seenPort[o.Name] = struct{}{}
		if !n.Valid(o.Signal) {
			return fmt.Errorf("netlist %q: output %q observes %w %d", n.Name, o.Name, ErrUnknownSignal, o.Signal)
		}
	}
	return nil
}

// Clone returns a deep copy. The DFT editor clones before mutating so that
// candidate evaluations never damage the source netlist.
//
// All fanin lists share one flat backing array, carved into full
// (len == cap) subslices: one allocation instead of one per gate, and an
// AppendFanin on any cloned gate reallocates that gate's list instead of
// overrunning its neighbor's.
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:    n.Name,
		Gates:   make([]Gate, len(n.Gates)),
		Outputs: append([]Output(nil), n.Outputs...),
		// maps.Clone copies the table wholesale instead of re-hashing
		// every name — the name index is a large share of a clone's cost
		// on big dies.
		byName: maps.Clone(n.byName),
	}
	total := 0
	for i := range n.Gates {
		total += len(n.Gates[i].Fanin)
	}
	flat := make([]SignalID, 0, total)
	for i := range n.Gates {
		g := n.Gates[i]
		lo := len(flat)
		flat = append(flat, g.Fanin...)
		g.Fanin = flat[lo:len(flat):len(flat)]
		c.Gates[i] = g
	}
	return c
}

// Stats summarizes a netlist for reporting (Table II of the paper).
type Stats struct {
	Name         string
	ScanFFs      int
	LogicGates   int
	InboundTSVs  int
	OutboundTSVs int
	PIs          int
	POs          int
	MaxLevel     int
}

// TSVs returns the total TSV count.
func (s Stats) TSVs() int { return s.InboundTSVs + s.OutboundTSVs }

// CollectStats gathers the summary counters for a die.
func CollectStats(n *Netlist) Stats {
	return Stats{
		Name:         n.Name,
		ScanFFs:      len(n.FlipFlops()),
		LogicGates:   n.NumLogicGates(),
		InboundTSVs:  len(n.InboundTSVs()),
		OutboundTSVs: len(n.OutboundTSVs()),
		PIs:          len(n.Inputs()),
		POs:          len(n.PrimaryOutputs()),
		MaxLevel:     n.Graph().MaxLevel(),
	}
}
