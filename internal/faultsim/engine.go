package faultsim

import (
	"wcm3d/internal/faults"
	"wcm3d/internal/netlist"
)

// Engine grades single faults against good-circuit blocks. It keeps
// scratch state that consecutive faults reuse, so create one engine per
// goroutine.
type Engine struct {
	s *Simulator

	// fval/fknown mirror the good words of block seq. A propagation
	// writes faulty words into them and restores the touched signals
	// before it returns.
	fval, fknown []uint64
	seq          uint64
	touched      []netlist.SignalID

	// stemDet[s] memoizes stemDetects(s) for block stemSeq[s].
	stemSeq []uint64
	stemDet []uint64

	// bucket queue by combinational level
	buckets [][]netlist.SignalID
	inQueue []uint32 // epoch-stamped "already queued" marker
	epoch   uint32
	queued  int

	// pinV/pinK hold a pin-fault site's fanin words, pin by pin.
	pinV, pinK []uint64
}

// NewEngine allocates propagation scratch space for the simulator's
// netlist.
func (s *Simulator) NewEngine() *Engine {
	ng := s.N.NumGates()
	return &Engine{
		s:       s,
		fval:    make([]uint64, ng),
		fknown:  make([]uint64, ng),
		stemSeq: make([]uint64, ng),
		stemDet: make([]uint64, ng),
		buckets: make([][]netlist.SignalID, s.g.MaxLevel()+1),
		inQueue: make([]uint32, ng),
		pinV:    make([]uint64, len(s.pins)),
		pinK:    make([]uint64, len(s.pins)),
	}
}

// enqueueFanouts schedules sig's combinational fanouts for re-evaluation.
// A DFF fanout is skipped: the effect is captured there, and its D-pin
// driver is the observed signal.
func (e *Engine) enqueueFanouts(sig netlist.SignalID) {
	g := e.s.g
	for _, fo := range g.FanoutOf(sig) {
		if g.Types[fo] == netlist.GateDFF || e.inQueue[fo] == e.epoch {
			continue
		}
		e.inQueue[fo] = e.epoch
		lvl := g.Level[fo]
		e.buckets[lvl] = append(e.buckets[lvl], fo)
		e.queued++
	}
}

// Detects simulates one stuck-at fault against the block and returns the
// word of patterns that detect it (bit k set = pattern k detects). A
// pattern detects the fault when good and faulty values are both known and
// differ at at least one observation point.
//
// The effect is graded once per fanout-free region. From the fault site
// it walks the simulator's next links, each gate evaluated with the
// faulty word substituted for its one affected fanin signal, up to the
// region's stem s. Let flip be the patterns where the faulty word at s
// is known, the good word is known, and they differ. Then the result is
// flip & stemDetects(s), where stemDetects propagates the complemented
// good word from s and is shared by every fault of the region. This is
// exact, pattern by pattern:
//
//   - every operation is bitwise per pattern;
//   - a signal with a next link is unobserved and feeds nothing else, so
//     the effect leaves the region only through s;
//   - where flip is set, the faulty word at s equals the seed of
//     stemDetects;
//   - where flip is clear, the good and faulty values at s agree
//     wherever both are known. The three-valued evaluators are monotone,
//     so that agreement holds at every signal downstream and the pattern
//     detects nothing.
//
// The last point also ends the walk early: once flip is clear on every
// pattern, the fault is undetected by the block.
func (e *Engine) Detects(f faults.Fault, good *Block) uint64 {
	s := e.s
	g := s.g
	if e.seq != good.seq {
		copy(e.fval, good.val)
		copy(e.fknown, good.known)
		e.seq = good.seq
	}

	stuck := uint64(0)
	if f.StuckAt == 1 {
		stuck = good.mask
	}

	sig := f.Gate
	v, k := stuck, good.mask
	if f.Pin != faults.OutputPin {
		fanin := g.FaninOf(sig)
		if g.Types[sig] == netlist.GateDFF {
			// A branch fault on the D pin corrupts only what the
			// flip-flop captures; the scan chain observes the capture
			// directly. Detected wherever the good D value is known
			// and differs from the stuck value.
			d := fanin[f.Pin]
			return good.known[d] & (good.val[d] ^ stuck) & good.mask
		}
		for pin, src := range fanin {
			e.pinV[pin], e.pinK[pin] = good.val[src], good.known[src]
		}
		e.pinV[f.Pin], e.pinK[f.Pin] = stuck, good.mask
		v, k = evalWord(g.Types[sig], s.pins[:len(fanin)], e.pinV, e.pinK)
		v &= good.mask
		k &= good.mask
	}

	for {
		flip := good.known[sig] & k & (good.val[sig] ^ v)
		if flip == 0 {
			return 0
		}
		nx := s.next[sig]
		if nx == netlist.InvalidSignal {
			return flip & e.stemDetects(sig, good)
		}
		e.fval[sig], e.fknown[sig] = v, k
		v, k = evalWord(g.Types[nx], g.FaninOf(nx), e.fval, e.fknown)
		e.fval[sig], e.fknown[sig] = good.val[sig], good.known[sig]
		v &= good.mask
		k &= good.mask
		sig = nx
	}
}

// stemDetects returns the patterns that detect a flip of the stem's good
// value: the stem carries its complemented good word, and the change
// propagates event-driven in level order until the queue drains. The
// result is memoized per stem for the mirrored block.
func (e *Engine) stemDetects(stem netlist.SignalID, good *Block) uint64 {
	if e.stemSeq[stem] == good.seq {
		return e.stemDet[stem]
	}
	s := e.s
	g := s.g
	mask := good.mask
	e.epoch++
	e.touched = append(e.touched[:0], stem)
	e.fval[stem] = ^good.val[stem] & mask
	e.enqueueFanouts(stem)
	for lvl := int(g.Level[stem]) + 1; e.queued > 0; lvl++ {
		bucket := e.buckets[lvl]
		for _, id := range bucket {
			v, k := evalWord(g.Types[id], g.FaninOf(id), e.fval, e.fknown)
			v &= mask
			k &= mask
			if v == e.fval[id] && k == e.fknown[id] {
				continue
			}
			e.fval[id], e.fknown[id] = v, k
			e.touched = append(e.touched, id)
			e.enqueueFanouts(id)
		}
		e.queued -= len(bucket)
		e.buckets[lvl] = bucket[:0]
	}

	var det uint64
	for _, sig := range e.touched {
		if s.observed[sig] {
			det |= good.known[sig] & e.fknown[sig] & (good.val[sig] ^ e.fval[sig])
		}
		e.fval[sig], e.fknown[sig] = good.val[sig], good.known[sig]
	}
	det &= mask
	e.stemSeq[stem], e.stemDet[stem] = good.seq, det
	return det
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
