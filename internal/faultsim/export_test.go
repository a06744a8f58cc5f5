package faultsim

import (
	"wcm3d/internal/faults"
	"wcm3d/internal/netlist"
)

// ReferenceEngine is the whole-cone grader the stem-region Engine
// replaced: every fault propagates its own effect, event-driven, through
// its entire fan-out cone. Tests hold Engine.Detects to it bit for bit.
type ReferenceEngine struct {
	s *Simulator

	fval, fknown []uint64
	touchEpoch   []uint32
	epoch        uint32
	touched      []netlist.SignalID

	buckets  [][]netlist.SignalID
	inQueue  []uint32
	maxLevel int
}

// NewReferenceEngine allocates a reference grader for the simulator.
func (s *Simulator) NewReferenceEngine() *ReferenceEngine {
	ng := s.N.NumGates()
	maxLvl := s.g.MaxLevel()
	return &ReferenceEngine{
		s:          s,
		fval:       make([]uint64, ng),
		fknown:     make([]uint64, ng),
		touchEpoch: make([]uint32, ng),
		buckets:    make([][]netlist.SignalID, maxLvl+1),
		inQueue:    make([]uint32, ng),
		maxLevel:   maxLvl,
	}
}

func (e *ReferenceEngine) faultyVal(b *Block, sig netlist.SignalID) (uint64, uint64) {
	if e.touchEpoch[sig] == e.epoch {
		return e.fval[sig], e.fknown[sig]
	}
	return b.val[sig], b.known[sig]
}

func (e *ReferenceEngine) setFaulty(sig netlist.SignalID, v, k uint64) {
	if e.touchEpoch[sig] != e.epoch {
		e.touchEpoch[sig] = e.epoch
		e.touched = append(e.touched, sig)
	}
	e.fval[sig] = v
	e.fknown[sig] = k
}

func (e *ReferenceEngine) enqueue(sig netlist.SignalID) {
	if e.inQueue[sig] == e.epoch {
		return
	}
	e.inQueue[sig] = e.epoch
	lvl := e.s.g.Level[sig]
	e.buckets[lvl] = append(e.buckets[lvl], sig)
}

// Detects is Engine.Detects computed over the fault's whole cone.
func (e *ReferenceEngine) Detects(f faults.Fault, good *Block) uint64 {
	s := e.s
	g := s.g
	e.epoch++
	e.touched = e.touched[:0]

	stuck := uint64(0)
	if f.StuckAt == 1 {
		stuck = good.mask
	}

	site := f.Gate
	var seedV, seedK uint64
	if f.Pin == faults.OutputPin {
		seedV, seedK = stuck, good.mask
	} else {
		fanin := g.FaninOf(site)
		if g.Types[site] == netlist.GateDFF {
			d := fanin[f.Pin]
			return good.known[d] & (good.val[d] ^ stuck) & good.mask
		}
		fp := int(f.Pin)
		seedV, seedK = evalWordWith(g.Types[site], fanin, func(pin int, src netlist.SignalID) (uint64, uint64) {
			if pin == fp {
				return stuck, good.mask
			}
			return good.val[src], good.known[src]
		})
		seedV &= good.mask
		seedK &= good.mask
	}

	diff := (seedK | good.known[site]) & ((seedV & seedK) ^ (good.val[site] & good.known[site]))
	diff |= seedK ^ good.known[site]
	if diff&good.mask == 0 {
		return 0
	}
	e.setFaulty(site, seedV, seedK)
	for _, fo := range g.FanoutOf(site) {
		if g.Types[fo] == netlist.GateDFF {
			continue
		}
		e.enqueue(fo)
	}

	for lvl := 0; lvl <= e.maxLevel; lvl++ {
		bucket := e.buckets[lvl]
		for bi := 0; bi < len(bucket); bi++ {
			id := bucket[bi]
			v, k := evalWordWith(g.Types[id], g.FaninOf(id), func(_ int, src netlist.SignalID) (uint64, uint64) {
				return e.faultyVal(good, src)
			})
			v &= good.mask
			k &= good.mask
			curV, curK := e.faultyVal(good, id)
			if v == curV && k == curK {
				continue
			}
			e.setFaulty(id, v, k)
			for _, fo := range g.FanoutOf(id) {
				if g.Types[fo] == netlist.GateDFF {
					continue
				}
				e.enqueue(fo)
			}
		}
		e.buckets[lvl] = bucket[:0]
	}

	var det uint64
	for _, sig := range e.touched {
		if !s.observed[sig] {
			continue
		}
		det |= good.known[sig] & e.fknown[sig] & (good.val[sig] ^ e.fval[sig])
	}
	return det & good.mask
}

// evalWordWith is the evaluator the reference grader was written
// against: it fetches each fanin word through pinFn(pin, signal).
func evalWordWith(t netlist.GateType, fanin []netlist.SignalID, pinFn func(int, netlist.SignalID) (uint64, uint64)) (uint64, uint64) {
	fn := func(pin int) (uint64, uint64) { return pinFn(pin, fanin[pin]) }
	switch t {
	case netlist.GateBuf:
		return fn(0)
	case netlist.GateNot:
		v, k := fn(0)
		return ^v, k
	case netlist.GateAnd, netlist.GateNand:
		v := ^uint64(0)
		known1 := ^uint64(0)
		known0 := uint64(0)
		for pin := range fanin {
			fv, fk := fn(pin)
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
		known0 := uint64(0)
		for pin := range fanin {
			fv, fk := fn(pin)
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
		for pin := range fanin {
			fv, fk := fn(pin)
			v ^= fv
			kn &= fk
		}
		if t == netlist.GateXnor {
			return ^v, kn
		}
		return v, kn
	case netlist.GateMux2:
		sv, sk := fn(0)
		av, ak := fn(1)
		bv, bk := fn(2)
		v := (^sv & av) | (sv & bv)
		kn := (sk & ((^sv & ak) | (sv & bk))) | (ak & bk & ^(av ^ bv))
		return v, kn
	default:
		return 0, 0
	}
}
