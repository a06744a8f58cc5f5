package faultsim

import (
	"wcm3d/internal/faults"
	"wcm3d/internal/netlist"
)

// Engine performs single-fault, event-driven faulty-machine propagation
// against a good-circuit block. It keeps scratch state keyed by an epoch
// counter so consecutive faults reuse the same allocations; create one
// engine per goroutine.
type Engine struct {
	s *Simulator

	fval, fknown []uint64
	touchEpoch   []uint32
	epoch        uint32
	touched      []netlist.SignalID

	// bucket queue by combinational level
	buckets  [][]netlist.SignalID
	inQueue  []uint32 // epoch-stamped "already queued" marker
	maxLevel int
}

// NewEngine allocates propagation scratch space for the simulator's
// netlist.
func (s *Simulator) NewEngine() *Engine {
	ng := s.N.NumGates()
	maxLvl := s.g.MaxLevel()
	return &Engine{
		s:          s,
		fval:       make([]uint64, ng),
		fknown:     make([]uint64, ng),
		touchEpoch: make([]uint32, ng),
		buckets:    make([][]netlist.SignalID, maxLvl+1),
		inQueue:    make([]uint32, ng),
		maxLevel:   maxLvl,
	}
}

// faultyVal reads a signal's value in the faulty machine: the propagated
// faulty value if this signal was touched this epoch, otherwise the good
// value.
func (e *Engine) faultyVal(b *Block, sig netlist.SignalID) (uint64, uint64) {
	if e.touchEpoch[sig] == e.epoch {
		return e.fval[sig], e.fknown[sig]
	}
	return b.val[sig], b.known[sig]
}

// setFaulty records a signal's faulty value and remembers it was touched.
func (e *Engine) setFaulty(sig netlist.SignalID, v, k uint64) {
	if e.touchEpoch[sig] != e.epoch {
		e.touchEpoch[sig] = e.epoch
		e.touched = append(e.touched, sig)
	}
	e.fval[sig] = v
	e.fknown[sig] = k
}

// enqueue schedules a gate for re-evaluation.
func (e *Engine) enqueue(sig netlist.SignalID) {
	if e.inQueue[sig] == e.epoch {
		return
	}
	e.inQueue[sig] = e.epoch
	lvl := e.s.g.Level[sig]
	e.buckets[lvl] = append(e.buckets[lvl], sig)
}

// Detects simulates one stuck-at fault against the block and returns the
// word of patterns that detect it (bit k set = pattern k detects). A
// pattern detects the fault when good and faulty values are both known and
// differ at at least one observation point.
func (e *Engine) Detects(f faults.Fault, good *Block) uint64 {
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
			// A branch fault on the D pin corrupts only what the
			// flip-flop captures; the scan chain observes the capture
			// directly. Detected wherever the good D value is known
			// and differs from the stuck value.
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

	// No observable difference at the site → no propagation. A
	// difference exists for a pattern when either value is known and
	// they disagree, or knownness changed.
	diff := (seedK | good.known[site]) & ((seedV & seedK) ^ (good.val[site] & good.known[site]))
	diff |= seedK ^ good.known[site]
	if diff&good.mask == 0 {
		return 0
	}
	e.setFaulty(site, seedV, seedK)
	for _, fo := range g.FanoutOf(site) {
		if g.Types[fo] == netlist.GateDFF {
			continue // effect is captured; D-pin driver is the observed signal
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

// Campaign fault-simulates a pattern set against a fault list with fault
// dropping and returns per-fault detection plus, for each pattern, whether
// it was the first detector of at least one fault (useful for pattern-set
// compaction). Patterns are processed in blocks of 64 in the given order.
type Campaign struct {
	// Detected[i] is true when fault list[i] was detected.
	Detected []bool
	// FirstDetector[i] is the pattern index that first detected fault i,
	// or -1.
	FirstDetector []int
	// UsefulPattern[p] is true when pattern p first-detected >= 1 fault.
	UsefulPattern []bool
	// NumDetected counts detected faults.
	NumDetected int
}

// RunCampaign simulates every pattern against every (not yet detected)
// fault.
func (s *Simulator) RunCampaign(patterns []Pattern, list []faults.Fault) (*Campaign, error) {
	c := &Campaign{
		Detected:      make([]bool, len(list)),
		FirstDetector: make([]int, len(list)),
		UsefulPattern: make([]bool, len(patterns)),
	}
	for i := range c.FirstDetector {
		c.FirstDetector[i] = -1
	}
	eng := s.NewEngine()
	for base := 0; base < len(patterns); base += 64 {
		end := base + 64
		if end > len(patterns) {
			end = len(patterns)
		}
		block, err := s.GoodSim(patterns[base:end])
		if err != nil {
			return nil, err
		}
		for fi := range list {
			if c.Detected[fi] {
				continue
			}
			det := eng.Detects(list[fi], block)
			if det == 0 {
				continue
			}
			first := 0
			for ; first < 64; first++ {
				if det&(1<<uint(first)) != 0 {
					break
				}
			}
			c.Detected[fi] = true
			c.FirstDetector[fi] = base + first
			c.UsefulPattern[base+first] = true
			c.NumDetected++
		}
	}
	return c, nil
}

// Coverage returns detected/total as a fraction in [0,1].
func (c *Campaign) Coverage() float64 {
	if len(c.Detected) == 0 {
		return 1
	}
	return float64(c.NumDetected) / float64(len(c.Detected))
}
