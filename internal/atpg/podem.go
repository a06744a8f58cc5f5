package atpg

import (
	"math/rand"

	"wcm3d/internal/faults"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netlist"
)

// podem is the per-fault search state. It is reused across faults (reset)
// so allocations amortize.
type podem struct {
	g   *netlist.Graph
	sim *faultsim.Simulator
	sc  *scoap

	gv, fv []V // good / faulty three-valued state
	// trail records every change to gv/fv since both were all-X, so
	// undo(0) restores the all-X state.
	trail []trailEntry

	// diffList holds signals that at some point carried a fault effect
	// (D or D'); entries may be stale and are validated on read.
	diffList []netlist.SignalID
	// nObsDiffs counts observation points currently carrying a valid
	// fault effect; > 0 means the fault is detected.
	nObsDiffs int

	buckets [][]netlist.SignalID
	inQueue []uint32
	epoch   uint32
	// lo..hi is the window of levels that may hold queued gates; lo > hi
	// when the queue is empty.
	lo, hi int

	// consts are the constant gates in gate order, with their values.
	consts []constGate
	// pins is the identity fanin 0, 1, ... of the widest gate, and
	// pinVals holds a pin-fault site's faulty fanin values pin by pin.
	pins    []netlist.SignalID
	pinVals []V

	fault      faults.Fault
	faultPin   int // fault.Pin as int, or -1
	maxBT      int
	backtracks int
	aborted    bool

	// justify mode: succeed by driving justifySig to justifyVal instead
	// of propagating a fault effect. Used for DFF D-pin branch faults
	// (observed directly at capture) and for transition-fault V1
	// vectors.
	justifyMode bool
	justifySig  netlist.SignalID
	justifyVal  V
}

type trailEntry struct {
	sig  netlist.SignalID
	g, f V
}

type constGate struct {
	sig netlist.SignalID
	v   V
}

func newPodem(n *netlist.Netlist, sim *faultsim.Simulator, sc *scoap, maxBacktracks int) *podem {
	g := n.Graph()
	ng := g.NumGates()
	maxLvl := g.MaxLevel()
	p := &podem{
		g:       g,
		sim:     sim,
		sc:      sc,
		gv:      make([]V, ng),
		fv:      make([]V, ng),
		buckets: make([][]netlist.SignalID, maxLvl+1),
		inQueue: make([]uint32, ng),
		epoch:   1,
		lo:      maxLvl + 1,
		hi:      -1,
		maxBT:   maxBacktracks,
	}
	for i, t := range g.Types {
		id := netlist.SignalID(i)
		switch t {
		case netlist.GateConst0:
			p.consts = append(p.consts, constGate{id, V0})
		case netlist.GateConst1:
			p.consts = append(p.consts, constGate{id, V1})
		}
		for k := len(p.pins); k < len(g.FaninOf(id)); k++ {
			p.pins = append(p.pins, netlist.SignalID(k))
		}
	}
	p.pinVals = make([]V, len(p.pins))
	return p
}

func (p *podem) controllable(sig netlist.SignalID) bool {
	_, ok := p.sim.SourceIndex(sig)
	return ok
}

// reset prepares the state for a new target fault: rolls every value
// back to X, injects the fault, and propagates constants.
func (p *podem) reset(f faults.Fault) {
	p.fault = f
	p.faultPin = int(f.Pin)
	p.justifyMode = false
	p.restart()
	// Inject the fault so the faulty machine knows the stuck value even
	// before activation.
	stuck := FromBool(f.StuckAt == 1)
	if f.Pin == faults.OutputPin {
		p.setValue(f.Gate, p.gv[f.Gate], stuck)
		p.enqueueFanouts(f.Gate)
	} else {
		p.enqueue(f.Gate)
	}
	p.propagate()
}

// resetJustify prepares a pure justification problem: drive sig to v with
// no fault injected.
func (p *podem) resetJustify(sig netlist.SignalID, v V) {
	p.fault = faults.Fault{Gate: netlist.InvalidSignal, Pin: faults.OutputPin}
	p.faultPin = faults.OutputPin
	p.justifyMode = true
	p.justifySig = sig
	p.justifyVal = v
	p.restart()
	p.propagate()
}

// restart undoes the whole trail, back to all-X, clears the search
// counters, and sets the constants, which are known from the start, for
// the current fault. The caller propagates.
func (p *podem) restart() {
	p.undo(0)
	p.diffList = p.diffList[:0]
	p.backtracks = 0
	p.aborted = false
	for _, c := range p.consts {
		p.setValue(c.sig, c.v, p.faultyOf(c.sig, c.v))
		p.enqueueFanouts(c.sig)
	}
}

// success reports whether the current assignment achieves the goal.
func (p *podem) success() bool {
	if p.justifyMode {
		return p.gv[p.justifySig] == p.justifyVal
	}
	return p.nObsDiffs > 0
}

// faultyOf maps a good value at sig to the faulty-machine value, applying
// output-fault injection at the fault site.
func (p *podem) faultyOf(sig netlist.SignalID, good V) V {
	if sig == p.fault.Gate && p.faultPin == faults.OutputPin {
		return FromBool(p.fault.StuckAt == 1)
	}
	return good
}

// setValue records the old state on the trail and updates bookkeeping.
func (p *podem) setValue(sig netlist.SignalID, g, f V) {
	oldG, oldF := p.gv[sig], p.fv[sig]
	if oldG == g && oldF == f {
		return
	}
	p.trail = append(p.trail, trailEntry{sig, oldG, oldF})
	wasDiff := oldG != VX && oldF != VX && oldG != oldF
	isDiff := g != VX && f != VX && g != f
	p.gv[sig], p.fv[sig] = g, f
	if isDiff && !wasDiff {
		p.diffList = append(p.diffList, sig)
	}
	if p.sim.Observed(sig) {
		switch {
		case isDiff && !wasDiff:
			p.nObsDiffs++
		case wasDiff && !isDiff:
			p.nObsDiffs--
		}
	}
}

// undo rolls the trail back to a mark.
func (p *podem) undo(mark int) {
	for len(p.trail) > mark {
		e := p.trail[len(p.trail)-1]
		p.trail = p.trail[:len(p.trail)-1]
		curG, curF := p.gv[e.sig], p.fv[e.sig]
		wasDiff := curG != VX && curF != VX && curG != curF
		isDiff := e.g != VX && e.f != VX && e.g != e.f
		p.gv[e.sig], p.fv[e.sig] = e.g, e.f
		if p.sim.Observed(e.sig) {
			switch {
			case isDiff && !wasDiff:
				p.nObsDiffs++
			case wasDiff && !isDiff:
				p.nObsDiffs--
			}
		}
	}
}

func (p *podem) enqueue(sig netlist.SignalID) {
	if p.inQueue[sig] == p.epoch {
		return
	}
	p.inQueue[sig] = p.epoch
	lvl := int(p.g.Level[sig])
	p.buckets[lvl] = append(p.buckets[lvl], sig)
	p.lo = min(p.lo, lvl)
	p.hi = max(p.hi, lvl)
}

func (p *podem) enqueueFanouts(sig netlist.SignalID) {
	for _, fo := range p.g.FanoutOf(sig) {
		if p.g.Types[fo] == netlist.GateDFF {
			continue // capture boundary
		}
		p.enqueue(fo)
	}
}

// propagate drains the event queue in level order, recomputing gate
// values. The faulty machine is evaluated only at the fault site and
// where a fanin's faulty value differs from its good one; elsewhere it
// equals the good machine.
func (p *podem) propagate() {
	for lvl := p.lo; lvl <= p.hi; lvl++ {
		bucket := p.buckets[lvl]
		for _, id := range bucket {
			t, fanin := p.g.Types[id], p.g.FaninOf(id)
			if !t.IsCombinational() {
				continue
			}
			ng := eval3(t, fanin, p.gv)
			nf := ng
			if id == p.fault.Gate {
				stuck := FromBool(p.fault.StuckAt == 1)
				if p.faultPin == faults.OutputPin {
					nf = stuck
				} else {
					vals := p.pinVals[:len(fanin)]
					for pin, src := range fanin {
						vals[pin] = p.fv[src]
					}
					vals[p.faultPin] = stuck
					nf = eval3(t, p.pins[:len(fanin)], vals)
				}
			} else {
				for _, src := range fanin {
					if p.fv[src] != p.gv[src] {
						nf = eval3(t, fanin, p.fv)
						break
					}
				}
			}
			if ng != p.gv[id] || nf != p.fv[id] {
				p.setValue(id, ng, nf)
				p.enqueueFanouts(id)
			}
		}
		p.buckets[lvl] = bucket[:0]
	}
	p.lo, p.hi = len(p.buckets), -1
	p.epoch++
}

// assign sets a controllable source and propagates.
func (p *podem) assign(src netlist.SignalID, v V) {
	p.setValue(src, v, p.faultyOf(src, v))
	p.enqueueFanouts(src)
	p.propagate()
}

// activationLine returns the signal whose good value must be set opposite
// to the stuck value for the fault to produce an effect.
func (p *podem) activationLine() netlist.SignalID {
	if p.faultPin == faults.OutputPin {
		return p.fault.Gate
	}
	return p.g.FaninOf(p.fault.Gate)[p.faultPin]
}

// objective returns the next (signal, value) goal, or ok=false when the
// current branch cannot succeed.
func (p *podem) objective() (netlist.SignalID, V, bool) {
	if p.justifyMode {
		switch p.gv[p.justifySig] {
		case VX:
			return p.justifySig, p.justifyVal, true
		case p.justifyVal:
			return 0, VX, false // success() already handled upstream
		default:
			return 0, VX, false // contradicted
		}
	}
	want := FromBool(p.fault.StuckAt == 1).Neg()
	line := p.activationLine()
	switch p.gv[line] {
	case VX:
		return line, want, true
	case want.Neg():
		return 0, VX, false // activation impossible on this branch
	}
	// Activated: drive a D-frontier gate's side inputs non-controlling.
	// For a pin fault whose effect has not yet crossed its own gate, the
	// site gate itself is the (only) frontier.
	type cand struct {
		sig netlist.SignalID
		v   V
	}
	var best *cand
	bestCost := infCost
	liveEffect := false
	consider := func(fo netlist.SignalID) {
		t, fanin := p.g.Types[fo], p.g.FaninOf(fo)
		if !t.IsCombinational() {
			return
		}
		if p.gv[fo] != VX && p.fv[fo] != VX {
			return // output already resolved; not frontier
		}
		if !p.sc.reachObs[fo] {
			return
		}
		hasEffect := func(pin int) bool {
			if fo == p.fault.Gate && pin == p.faultPin {
				return true // activated pin fault: the effect sits on the pin
			}
			return p.isDiff(fanin[pin])
		}
		sig, v, ok := p.frontierGoal(t, fanin, hasEffect)
		if !ok {
			return
		}
		cost := p.sc.cost(sig, v)
		if cost < bestCost {
			bestCost = cost
			best = &cand{sig, v}
		}
	}
	for _, d := range p.diffList {
		if p.gv[d] == VX || p.fv[d] == VX || p.gv[d] == p.fv[d] {
			continue
		}
		if p.sc.reachObs[d] {
			liveEffect = true
		}
		for _, fo := range p.g.FanoutOf(d) {
			consider(fo)
		}
	}
	if p.faultPin != faults.OutputPin &&
		(p.gv[p.fault.Gate] == VX || p.fv[p.fault.Gate] == VX) {
		// Effect sits on the faulted pin, upstream of the site gate.
		if p.sc.reachObs[p.fault.Gate] {
			liveEffect = true
		}
		consider(p.fault.Gate)
	}
	if !liveEffect || best == nil {
		return 0, VX, false
	}
	return best.sig, best.v, true
}

// frontierGoal picks the side-input objective that lets a fault effect pass
// through a frontier gate of type t with the given fanin. hasEffect reports
// which input pins carry the effect (a diff signal, or the faulted pin
// itself).
func (p *podem) frontierGoal(t netlist.GateType, fanin []netlist.SignalID, hasEffect func(int) bool) (netlist.SignalID, V, bool) {
	if t == netlist.GateMux2 {
		sel := fanin[0]
		switch {
		case hasEffect(0):
			// Effect on the select: the two data inputs must differ.
			for _, pin := range [2]int{1, 2} {
				if p.gv[fanin[pin]] == VX && !hasEffect(pin) {
					other := p.gv[fanin[3-pin]]
					v := V1
					if other == V1 {
						v = V0
					}
					return fanin[pin], v, true
				}
			}
			return 0, VX, false
		case hasEffect(1):
			if p.gv[sel] == VX {
				return sel, V0, true // steer the select toward input a
			}
			return 0, VX, false
		case hasEffect(2):
			if p.gv[sel] == VX {
				return sel, V1, true // steer the select toward input b
			}
			return 0, VX, false
		default:
			return 0, VX, false
		}
	}
	var v V
	switch t {
	case netlist.GateAnd, netlist.GateNand:
		v = V1
	case netlist.GateOr, netlist.GateNor:
		v = V0
	case netlist.GateXor, netlist.GateXnor:
		v = V0
	default:
		return 0, VX, false // BUF/NOT propagate effects without help
	}
	for pin, src := range fanin {
		if p.gv[src] == VX && !hasEffect(pin) {
			return src, v, true
		}
	}
	return 0, VX, false
}

func (p *podem) isDiff(sig netlist.SignalID) bool {
	return p.gv[sig] != VX && p.fv[sig] != VX && p.gv[sig] != p.fv[sig]
}

// backtrace walks an objective back to an unassigned controllable source.
func (p *podem) backtrace(sig netlist.SignalID, v V) (netlist.SignalID, V, bool) {
	for steps := 0; steps < p.g.NumGates()+1; steps++ {
		if p.controllable(sig) {
			if p.gv[sig] != VX {
				return 0, VX, false // already assigned: dead end
			}
			return sig, v, true
		}
		t, fanin := p.g.Types[sig], p.g.FaninOf(sig)
		switch t {
		case netlist.GateBuf:
			sig = fanin[0]
		case netlist.GateNot:
			sig, v = fanin[0], v.Neg()
		case netlist.GateAnd, netlist.GateNand, netlist.GateOr, netlist.GateNor:
			av := v
			if t == netlist.GateNand || t == netlist.GateNor {
				av = v.Neg()
			}
			// In the AND domain: output 1 needs all inputs 1 (pick the
			// hardest X input); output 0 needs one input 0 (pick the
			// easiest). OR domain is the dual.
			need := V1
			all := av == V1
			if t == netlist.GateOr || t == netlist.GateNor {
				need = V0
				all = av == V0
			}
			want := need
			if !all {
				want = need.Neg()
			}
			next := netlist.InvalidSignal
			var bestCost int32
			for _, src := range fanin {
				if p.gv[src] != VX {
					continue
				}
				c := p.sc.cost(src, want)
				if next == netlist.InvalidSignal ||
					(all && c > bestCost) || (!all && c < bestCost) {
					next, bestCost = src, c
				}
			}
			if next == netlist.InvalidSignal {
				return 0, VX, false
			}
			sig, v = next, want
		case netlist.GateXor, netlist.GateXnor:
			target := v
			if t == netlist.GateXnor {
				target = v.Neg()
			}
			// parity of known inputs; first X input becomes the goal.
			next := netlist.InvalidSignal
			parity := V0
			for _, src := range fanin {
				switch p.gv[src] {
				case V1:
					parity = parity.Neg()
				case VX:
					if next == netlist.InvalidSignal {
						next = src
					}
				}
			}
			if next == netlist.InvalidSignal {
				return 0, VX, false
			}
			want := target
			if parity == V1 {
				want = target.Neg()
			}
			sig, v = next, want
		case netlist.GateMux2:
			sel := fanin[0]
			switch p.gv[sel] {
			case V0:
				sig = fanin[1]
			case V1:
				sig = fanin[2]
			default:
				// Choose the cheaper select branch for the target value.
				c0 := addSat(p.sc.cost(sel, V0), p.sc.cost(fanin[1], v))
				c1 := addSat(p.sc.cost(sel, V1), p.sc.cost(fanin[2], v))
				if c0 <= c1 {
					sig, v = sel, V0
				} else {
					sig, v = sel, V1
				}
			}
		default:
			// TSV pads, constants: uncontrollable.
			return 0, VX, false
		}
	}
	return 0, VX, false
}

// search runs the recursive PODEM decision loop. Returns true when the
// fault effect reaches an observation point.
func (p *podem) search() bool {
	if p.success() {
		return true
	}
	if p.aborted {
		return false
	}
	sig, v, ok := p.objective()
	if !ok {
		return false
	}
	src, want, ok := p.backtrace(sig, v)
	if !ok {
		return false
	}
	for _, tryV := range [2]V{want, want.Neg()} {
		mark := len(p.trail)
		p.assign(src, tryV)
		if p.search() {
			return true
		}
		p.undo(mark)
		p.backtracks++
		if p.backtracks > p.maxBT {
			p.aborted = true
			return false
		}
	}
	return false
}

// extractPattern reads the assigned sources into a test vector, filling
// unassigned sources randomly.
func (p *podem) extractPattern(rng *rand.Rand) faultsim.Pattern {
	pat := faultsim.NewPattern(p.sim.NumSources())
	for j, src := range p.sim.Sources {
		switch p.gv[src] {
		case V1:
			pat.Set(j, true)
		case V0:
			pat.Set(j, false)
		default:
			pat.Set(j, rng.Intn(2) == 1)
		}
	}
	return pat
}

// Generate attempts to build a test for one stuck-at fault.
// The outcome is one of: found (pattern valid), untestable (search space
// exhausted), aborted (backtrack budget hit).
type genOutcome uint8

const (
	genFound genOutcome = iota + 1
	genUntestable
	genAborted
)

func (p *podem) generate(f faults.Fault, rng *rand.Rand) (faultsim.Pattern, genOutcome) {
	if f.Pin != faults.OutputPin && p.g.Types[f.Gate] == netlist.GateDFF {
		// A D-pin branch fault is observed directly at scan capture:
		// the test only needs to justify the opposite value on the
		// driver.
		d := p.g.FaninOf(f.Gate)[f.Pin]
		p.resetJustify(d, FromBool(f.StuckAt == 1).Neg())
		if p.search() {
			return p.extractPattern(rng), genFound
		}
		if p.aborted {
			return faultsim.Pattern{}, genAborted
		}
		return faultsim.Pattern{}, genUntestable
	}
	// Structural screen: no path from the fault site to any observation
	// point means untestable regardless of values.
	if !p.structurallyObservable(f) {
		return faultsim.Pattern{}, genUntestable
	}
	p.reset(f)
	if p.search() {
		return p.extractPattern(rng), genFound
	}
	if p.aborted {
		return faultsim.Pattern{}, genAborted
	}
	return faultsim.Pattern{}, genUntestable
}

// justifyVector builds a vector driving sig to v (used for transition
// fault V1 vectors).
func (p *podem) justifyVector(sig netlist.SignalID, v V, rng *rand.Rand) (faultsim.Pattern, genOutcome) {
	p.resetJustify(sig, v)
	if p.search() {
		return p.extractPattern(rng), genFound
	}
	if p.aborted {
		return faultsim.Pattern{}, genAborted
	}
	return faultsim.Pattern{}, genUntestable
}

func (p *podem) structurallyObservable(f faults.Fault) bool {
	if f.Pin != faults.OutputPin && p.g.Types[f.Gate] == netlist.GateDFF {
		return true // D-pin branch faults are observed at capture
	}
	site := f.Gate
	if p.sim.Observed(site) {
		return true
	}
	return p.sc.reachObs[site]
}
