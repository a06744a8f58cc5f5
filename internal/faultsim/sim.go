// Package faultsim implements three-valued, bit-parallel (64 patterns per
// machine word) full-scan fault simulation — one half of the reproduction's
// stand-in for a commercial ATPG tool.
//
// The simulator views a die the way a pre-bond tester does:
//
//   - controllable: primary inputs and scan flip-flop outputs (the scan
//     chain sets them), plus any test-control cells the DFT editor added;
//   - observable: primary-output pads and scan flip-flop D pins;
//   - inbound TSV pads that no wrapper cell drives are X sources, and
//     outbound TSV ports are not observation points — exactly the
//     pre-bond testability gap the paper's wrapper cells close.
//
// Three-valued (0/1/X) semantics keep the X-propagation honest: a fault is
// counted as detected only when the good and faulty values are both known
// and differ at an observation point.
package faultsim

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"wcm3d/internal/netlist"
)

// Pattern is one test vector: bit j is the value applied to Sources[j].
type Pattern struct {
	bits []uint64
}

// NewPattern returns an all-zero vector for ns sources.
func NewPattern(ns int) Pattern {
	return Pattern{bits: make([]uint64, (ns+63)/64)}
}

// Set assigns source index j.
func (p Pattern) Set(j int, v bool) {
	if v {
		p.bits[j>>6] |= 1 << (uint(j) & 63)
	} else {
		p.bits[j>>6] &^= 1 << (uint(j) & 63)
	}
}

// Get reads source index j.
func (p Pattern) Get(j int) bool {
	return p.bits[j>>6]&(1<<(uint(j)&63)) != 0
}

// Clone copies the vector.
func (p Pattern) Clone() Pattern {
	return Pattern{bits: append([]uint64(nil), p.bits...)}
}

// Simulator holds the static circuit view shared across simulations.
type Simulator struct {
	N *netlist.Netlist
	// Sources are the controllable signals in ascending SignalID order.
	Sources []netlist.SignalID
	// sourceIdx[sig] is sig's index in Sources, or -1.
	sourceIdx []int32
	// observed[sig] reports whether the signal is an observation point.
	observed []bool
	// next[sig] is the only gate a fault effect on sig can reach: the
	// single fanout entry of an unobserved signal. It is InvalidSignal
	// for a stem, the root of a fanout-free region.
	next []netlist.SignalID
	// pins is the identity fanin 0, 1, ... of the widest gate; a pin-fault
	// seed evaluates the site gate over per-pin words through it.
	pins []netlist.SignalID
	// g is N's flat connectivity, which every simulation walks.
	g *netlist.Graph
}

// New builds a simulator with the standard pre-bond test view described in
// the package comment.
func New(n *netlist.Netlist) *Simulator {
	ng := n.NumGates()
	s := &Simulator{
		N:         n,
		sourceIdx: make([]int32, ng),
		observed:  make([]bool, ng),
		next:      make([]netlist.SignalID, ng),
		g:         n.Graph(),
	}
	g := s.g
	for i, t := range g.Types {
		id := netlist.SignalID(i)
		s.sourceIdx[i] = -1
		switch t {
		case netlist.GateInput, netlist.GateDFF:
			s.sourceIdx[i] = int32(len(s.Sources))
			s.Sources = append(s.Sources, id)
		}
		for k := len(s.pins); k < len(g.FaninOf(id)); k++ {
			s.pins = append(s.pins, netlist.SignalID(k))
		}
	}
	for _, o := range n.Outputs {
		if o.Class == netlist.PortPO {
			s.observed[o.Signal] = true
		}
	}
	for _, ff := range n.FlipFlops() {
		s.observed[n.Gate(ff).Fanin[0]] = true
	}
	// An unobserved signal drives no D pin, so all its fanout entries
	// are combinational.
	for i := range s.next {
		s.next[i] = netlist.InvalidSignal
		if fo := g.FanoutOf(netlist.SignalID(i)); !s.observed[i] && len(fo) == 1 {
			s.next[i] = fo[0]
		}
	}
	return s
}

// NumSources returns the number of controllable signals.
func (s *Simulator) NumSources() int { return len(s.Sources) }

// SourceIndex returns the pattern-bit index of a controllable signal.
func (s *Simulator) SourceIndex(sig netlist.SignalID) (int, bool) {
	if sig < 0 || int(sig) >= len(s.sourceIdx) {
		return 0, false
	}
	i := s.sourceIdx[sig]
	return int(i), i >= 0
}

// Observed reports whether the signal is an observation point.
func (s *Simulator) Observed(sig netlist.SignalID) bool { return s.observed[sig] }

// RandomPattern draws a uniform random vector.
func (s *Simulator) RandomPattern(rng *rand.Rand) Pattern {
	p := NewPattern(len(s.Sources))
	for i := range p.bits {
		p.bits[i] = rng.Uint64()
	}
	return p
}

// Block is the three-valued simulation state of up to 64 patterns: bit k of
// val[sig]/known[sig] is pattern k's value/known flag on that signal.
type Block struct {
	val, known []uint64
	// NPat is the number of live patterns (low bits).
	NPat int
	mask uint64 // low-NPat bits
	// seq identifies the block to an Engine's per-block state; GoodSim
	// numbers blocks from 1.
	seq uint64
}

// blockSeq numbers the blocks GoodSim builds.
var blockSeq atomic.Uint64

// Val returns (value, known) of a signal for pattern k.
func (b *Block) Val(sig netlist.SignalID, k int) (bool, bool) {
	bit := uint64(1) << uint(k)
	return b.val[sig]&bit != 0, b.known[sig]&bit != 0
}

// GoodSim simulates up to 64 patterns and returns the block of good-circuit
// values.
func (s *Simulator) GoodSim(patterns []Pattern) (*Block, error) {
	if len(patterns) == 0 || len(patterns) > 64 {
		return nil, fmt.Errorf("faultsim: block must hold 1..64 patterns, got %d", len(patterns))
	}
	ng := s.N.NumGates()
	b := &Block{
		val:   make([]uint64, ng),
		known: make([]uint64, ng),
		NPat:  len(patterns),
		seq:   blockSeq.Add(1),
	}
	if b.NPat == 64 {
		b.mask = ^uint64(0)
	} else {
		b.mask = (uint64(1) << uint(b.NPat)) - 1
	}
	// Load sources: transpose pattern bits into per-signal words.
	for j, sig := range s.Sources {
		var w uint64
		for k, p := range patterns {
			if p.Get(j) {
				w |= 1 << uint(k)
			}
		}
		b.val[sig] = w
		b.known[sig] = b.mask
	}
	for _, id := range s.g.Order {
		t := s.g.Types[id]
		switch t {
		case netlist.GateInput, netlist.GateDFF:
			// loaded above
		case netlist.GateTSVIn:
			// Floating pre-bond: X unless the DFT editor rewired it.
			b.val[id], b.known[id] = 0, 0
		case netlist.GateConst0:
			b.val[id], b.known[id] = 0, b.mask
		case netlist.GateConst1:
			b.val[id], b.known[id] = b.mask, b.mask
		default:
			v, kn := evalWord(t, s.g.FaninOf(id), b.val, b.known)
			b.val[id], b.known[id] = v&b.mask, kn&b.mask
		}
	}
	return b, nil
}

// evalWord computes the three-valued output of a gate of type t from the
// words of its fanin signals. Source and sequential types yield (0, 0).
func evalWord(t netlist.GateType, fanin []netlist.SignalID, val, known []uint64) (uint64, uint64) {
	switch t {
	case netlist.GateBuf:
		f := fanin[0]
		return val[f], known[f]
	case netlist.GateNot:
		f := fanin[0]
		return ^val[f], known[f]
	case netlist.GateAnd, netlist.GateNand:
		v := ^uint64(0)
		known1 := ^uint64(0) // all fanins known
		known0 := uint64(0)  // any fanin known-0
		for _, f := range fanin {
			fv, fk := val[f], known[f]
			v &= fv
			known1 &= fk
			known0 |= fk &^ fv
		}
		kn := known1 | known0
		if t == netlist.GateNand {
			return ^v, kn
		}
		return v, kn
	case netlist.GateOr, netlist.GateNor:
		v := uint64(0)
		known1 := ^uint64(0)
		known0 := uint64(0) // any fanin known-1 forces output
		for _, f := range fanin {
			fv, fk := val[f], known[f]
			v |= fv
			known1 &= fk
			known0 |= fk & fv
		}
		kn := known1 | known0
		if t == netlist.GateNor {
			return ^v, kn
		}
		return v, kn
	case netlist.GateXor, netlist.GateXnor:
		v := uint64(0)
		kn := ^uint64(0)
		for _, f := range fanin {
			v ^= val[f]
			kn &= known[f]
		}
		if t == netlist.GateXnor {
			return ^v, kn
		}
		return v, kn
	case netlist.GateMux2:
		s, a, b := fanin[0], fanin[1], fanin[2]
		sv, sk := val[s], known[s]
		av, ak := val[a], known[a]
		bv, bk := val[b], known[b]
		v := (^sv & av) | (sv & bv)
		// Known when: sel known and the selected input known, or both
		// inputs known and equal.
		kn := (sk & ((^sv & ak) | (sv & bk))) | (ak & bk & ^(av ^ bv))
		return v, kn
	default:
		return 0, 0
	}
}
