package tsvrepair

import (
	"fmt"

	"wcm3d/internal/experiments"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/verify"
	"wcm3d/internal/wcm"
)

// Planner owns one die's repair lifecycle: it clones the prepared die
// (the caller's stays pristine), plans the baseline, and then absorbs
// fault deltas — patching the netlist onto spare TSVs and replanning
// incrementally through a wcm.Session whose caches survive the patches.
//
// Replan and Rerun bracket the package's differential contract: Replan is
// the memoized incremental path, Rerun the from-scratch reference over
// the identical patched input, and the two must agree deeply — the
// property suites assert it per delta, and the service's equivalence CI
// job sweeps it across every Table II profile.
//
// A Planner is not safe for concurrent use; the wcmd service serializes
// replans per job.
type Planner struct {
	die  *experiments.Die
	opts wcm.Options
	sess *wcm.Session

	freeIn  []netlist.SignalID // unpromoted inbound spare pads
	freeOut []int              // unpromoted outbound spare port indices

	repairs  []Repair
	baseline *wcm.Result
}

// NewPlanner clones the die, discovers its spare sites, and plans the
// baseline (which also seeds the session's caches).
func NewPlanner(d *experiments.Die, opts wcm.Options) (*Planner, error) {
	if d == nil {
		return nil, fmt.Errorf("tsvrepair: nil die")
	}
	c := CloneDie(d)
	p := &Planner{die: c, opts: opts, sess: wcm.NewSession(c.Input(), opts)}
	p.freeIn, p.freeOut = spareSites(c.Netlist)
	base, err := p.sess.Run()
	if err != nil {
		return nil, fmt.Errorf("tsvrepair: baseline plan: %w", err)
	}
	p.baseline = base
	return p, nil
}

// Die returns the planner's private (patched) die.
func (p *Planner) Die() *experiments.Die { return p.die }

// Input returns the planning input over the patched die — the reference
// a from-scratch run or an independent verification consumes.
func (p *Planner) Input() wcm.Input { return p.sess.Input() }

// Baseline returns the pre-fault plan.
func (p *Planner) Baseline() *wcm.Result { return p.baseline }

// SparesLeft reports the unpromoted spare sites per side.
func (p *Planner) SparesLeft() (inbound, outbound int) {
	return len(p.freeIn), len(p.freeOut)
}

// Repairs returns every substitution executed so far, in order.
func (p *Planner) Repairs() []Repair { return p.repairs }

// Replan plans the current (patched) die incrementally through the
// session caches.
func (p *Planner) Replan() (*wcm.Result, error) { return p.sess.Run() }

// Rerun plans the current die from scratch — the differential reference.
func (p *Planner) Rerun() (*wcm.Result, error) {
	return wcm.Run(p.sess.Input(), p.sess.Options())
}

// Verify certifies a plan against the planner's current die with the
// independent checker, holding it to the plan's own effective thresholds.
func (p *Planner) Verify(res *wcm.Result) (*verify.Result, error) {
	vo := verify.Options{}
	if res.Options.Order != 0 {
		th := res.Options
		vo.Thresholds = &th
	}
	return verify.Plan(p.Input(), res.Assignment, vo)
}

// victim is one resolved TSV to take out of service.
type victim struct {
	fault   Fault
	inbound bool
	sig     netlist.SignalID // inbound: landing pad
	port    int              // outbound: port index
	name    string
}

// Apply executes one fault delta atomically: every victim is resolved
// and allotted a spare before any patch lands, and a failure rolls the
// netlist (and the session caches) back to the pre-delta state. Spares
// are allotted nearest-first in fault order; on small instances a
// minimum-total-distance assignment is tried instead and kept only when
// the replanned die passes independent verification (the greedy
// assignment is the fallback either way). Returns the repairs executed.
func (p *Planner) Apply(delta Delta) ([]Repair, error) {
	if len(delta.Faults) == 0 {
		return nil, fmt.Errorf("%w: empty delta", ErrBadFault)
	}
	victims, err := p.resolveDelta(delta)
	if err != nil {
		return nil, err
	}
	var inV, outV []victim
	for _, v := range victims {
		if v.inbound {
			inV = append(inV, v)
		} else {
			outV = append(outV, v)
		}
	}
	if len(inV) > len(p.freeIn) {
		return nil, fmt.Errorf("%w: delta needs %d inbound spares, %d left", ErrNoSpares, len(inV), len(p.freeIn))
	}
	if len(outV) > len(p.freeOut) {
		return nil, fmt.Errorf("%w: delta needs %d outbound spares, %d left", ErrNoSpares, len(outV), len(p.freeOut))
	}

	gIn := greedyAssign(p.inVictimPts(inV), p.freeInPts())
	gOut := greedyAssign(p.outVictimPts(outV), p.freeOutPts())
	oIn := optimalAssign(p.inVictimPts(inV), p.freeInPts())
	oOut := optimalAssign(p.outVictimPts(outV), p.freeOutPts())

	if !sameAssign(oIn, gIn) || !sameAssign(oOut, gOut) {
		// The optimal allotment is kept only when the incremental plan
		// over it certifies clean — a belt-and-braces gate, since the
		// allotment only picks which pads carry the rerouted nets.
		tx, reps := p.patch(inV, oIn, outV, oOut)
		res, err := p.sess.Run()
		if err == nil {
			var vr *verify.Result
			if vr, err = p.Verify(res); err == nil && vr.OK() {
				p.commit(tx, reps, oIn, oOut)
				return reps, nil
			}
		}
		tx.rollback()
	}
	tx, reps := p.patch(inV, gIn, outV, gOut)
	p.commit(tx, reps, gIn, gOut)
	return reps, nil
}

// resolveDelta validates every fault and resolves its victims against
// the die's live TSVs.
func (p *Planner) resolveDelta(delta Delta) ([]victim, error) {
	var victims []victim
	seen := make(map[string]bool)
	addVictim := func(f Fault, name string) error {
		v, err := p.resolve(name)
		if err != nil {
			return err
		}
		if seen[name] {
			return fmt.Errorf("%w: TSV %q is a victim twice in one delta", ErrBadFault, name)
		}
		seen[name] = true
		v.fault = f
		victims = append(victims, v)
		return nil
	}
	for _, f := range delta.Faults {
		if err := f.validate(); err != nil {
			return nil, err
		}
		switch f.Kind {
		case Stuck0, Stuck1, Open:
			if err := addVictim(f, f.TSV); err != nil {
				return nil, err
			}
		case Bridge:
			// A bridge shorts the pair: both TSVs are unusable.
			if err := addVictim(f, f.TSV); err != nil {
				return nil, err
			}
			if err := addVictim(f, f.With); err != nil {
				return nil, err
			}
		case Crosstalk:
			// The aggressor stays; it must exist, though.
			if _, err := p.resolve(f.With); err != nil {
				return nil, err
			}
			if err := addVictim(f, f.TSV); err != nil {
				return nil, err
			}
		}
	}
	return victims, nil
}

// resolve finds a live TSV by name: an inbound landing pad's signal name
// or an outbound port's name. A pad an earlier repair demoted no longer
// resolves.
func (p *Planner) resolve(name string) (victim, error) {
	n := p.die.Netlist
	if id, ok := n.SignalByName(name); ok && n.TypeOf(id) == netlist.GateTSVIn {
		return victim{inbound: true, sig: id, port: -1, name: name}, nil
	}
	for i, o := range n.Outputs {
		if o.Name == name && o.Class == netlist.PortTSVOut {
			return victim{inbound: false, sig: netlist.InvalidSignal, port: i, name: name}, nil
		}
	}
	return victim{}, fmt.Errorf("%w: %q", ErrUnknownTSV, name)
}

// ----- Spare allotment.

func (p *Planner) inVictimPts(v []victim) []place.Point {
	pts := make([]place.Point, len(v))
	for i := range v {
		pts[i] = p.die.Placement.Coords[v[i].sig]
	}
	return pts
}

func (p *Planner) outVictimPts(v []victim) []place.Point {
	pts := make([]place.Point, len(v))
	for i := range v {
		pts[i] = p.die.Placement.OutCoords[v[i].port]
	}
	return pts
}

func (p *Planner) freeInPts() []place.Point {
	pts := make([]place.Point, len(p.freeIn))
	for i, s := range p.freeIn {
		pts[i] = p.die.Placement.Coords[s]
	}
	return pts
}

func (p *Planner) freeOutPts() []place.Point {
	pts := make([]place.Point, len(p.freeOut))
	for i, o := range p.freeOut {
		pts[i] = p.die.Placement.OutCoords[o]
	}
	return pts
}

// greedyAssign allots, per victim in order, the nearest still-free spare.
// Returns indices into the free list, one per victim.
func greedyAssign(victims, frees []place.Point) []int {
	asn := make([]int, len(victims))
	taken := make([]bool, len(frees))
	for i, v := range victims {
		best, bestD := -1, 0.0
		for j, f := range frees {
			if taken[j] {
				continue
			}
			if d := v.ManhattanTo(f); best < 0 || d < bestD {
				best, bestD = j, d
			}
		}
		asn[i] = best
		taken[best] = true
	}
	return asn
}

// optimalAssign searches every injective victim→spare allotment for the
// minimum total Manhattan distance. Only on instances small enough to
// enumerate; nil otherwise (the caller falls back to greedy).
func optimalAssign(victims, frees []place.Point) []int {
	const maxVictims, maxFrees = 5, 8
	if len(victims) == 0 || len(victims) > maxVictims || len(frees) > maxFrees {
		return nil
	}
	best := make([]int, len(victims))
	cur := make([]int, len(victims))
	taken := make([]bool, len(frees))
	bestCost := -1.0
	var walk func(i int, cost float64)
	walk = func(i int, cost float64) {
		if bestCost >= 0 && cost >= bestCost {
			return
		}
		if i == len(victims) {
			bestCost = cost
			copy(best, cur)
			return
		}
		for j := range frees {
			if taken[j] {
				continue
			}
			taken[j] = true
			cur[i] = j
			walk(i+1, cost+victims[i].ManhattanTo(frees[j]))
			taken[j] = false
		}
	}
	walk(0, 0)
	if bestCost < 0 {
		return nil
	}
	return best
}

// sameAssign reports whether the optimal allotment adds anything over the
// greedy one; a nil optimal (instance too large, or no victims) never does.
func sameAssign(opt, greedy []int) bool {
	if opt == nil {
		return true
	}
	for i := range opt {
		if opt[i] != greedy[i] {
			return false
		}
	}
	return true
}

// ----- Patch mechanics.

// txn collects the inverse of every netlist edit so a failed or rejected
// delta can restore the exact pre-delta state (caches included).
type txn struct{ undo []func() }

func (t *txn) add(f func()) { t.undo = append(t.undo, f) }

func (t *txn) rollback() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.undo = nil
}

// patch applies every substitution of the delta under the given spare
// allotments (indices into the free lists) and returns the transaction
// and the repair records. The free lists are untouched until commit.
func (p *Planner) patch(inV []victim, inAsn []int, outV []victim, outAsn []int) (*txn, []Repair) {
	tx := &txn{}
	reps := make([]Repair, 0, len(inV)+len(outV))
	for i, v := range inV {
		spare := p.freeIn[inAsn[i]]
		p.patchInbound(tx, v.sig, spare)
		reps = append(reps, Repair{Fault: v.fault, Failed: v.name, Spare: p.die.Netlist.NameOf(spare), Inbound: true})
	}
	for i, v := range outV {
		spare := p.freeOut[outAsn[i]]
		p.patchOutbound(tx, v.port, spare)
		reps = append(reps, Repair{Fault: v.fault, Failed: v.name, Spare: p.die.Netlist.Outputs[spare].Name, Inbound: false})
	}
	return tx, reps
}

// patchInbound reroutes every pin the failed landing pad drives onto the
// spare pad, then swaps their source types. Both endpoints' anchored
// fan-out cones change, so both are invalidated in the session (and
// again on undo — an undo is itself a pin move).
func (p *Planner) patchInbound(tx *txn, failed, spare netlist.SignalID) {
	n := p.die.Netlist
	sinks := append([]netlist.SignalID(nil), n.Graph().FanoutOf(failed)...)
	for _, g := range sinks {
		fanin := n.Gate(g).Fanin
		for pin := range fanin {
			if fanin[pin] != failed {
				continue
			}
			g, pin := g, pin
			mustDo(n.RewireFanin(g, pin, spare))
			tx.add(func() { mustDo(n.RewireFanin(g, pin, failed)) })
		}
	}
	mustDo(n.RetypeSource(failed, netlist.GateInput))
	tx.add(func() { mustDo(n.RetypeSource(failed, netlist.GateTSVIn)) })
	mustDo(n.RetypeSource(spare, netlist.GateTSVIn))
	tx.add(func() { mustDo(n.RetypeSource(spare, netlist.GateInput)) })
	p.sess.InvalidateSource(failed)
	p.sess.InvalidateSource(spare)
	tx.add(func() {
		p.sess.InvalidateSource(failed)
		p.sess.InvalidateSource(spare)
	})
}

// patchOutbound swaps the failed TSV port with the spare port: drivers
// and classes trade places, so the spare observes the failed port's
// signal as the new outbound TSV and the failed port parks on the
// spare's inert driver as a plain output. No gate pin moves, so every
// session cache stays valid as-is.
func (p *Planner) patchOutbound(tx *txn, failed, spare int) {
	n := p.die.Netlist
	fs, ss := n.Outputs[failed].Signal, n.Outputs[spare].Signal
	mustDo(n.RewireOutput(spare, fs))
	tx.add(func() { mustDo(n.RewireOutput(spare, ss)) })
	mustDo(n.RewireOutput(failed, ss))
	tx.add(func() { mustDo(n.RewireOutput(failed, fs)) })
	mustDo(n.SetPortClass(failed, netlist.PortPO))
	tx.add(func() { mustDo(n.SetPortClass(failed, netlist.PortTSVOut)) })
	mustDo(n.SetPortClass(spare, netlist.PortTSVOut))
	tx.add(func() { mustDo(n.SetPortClass(spare, netlist.PortPO)) })
}

// commit consumes the allotted spares and records the repairs.
func (p *Planner) commit(_ *txn, reps []Repair, inAsn, outAsn []int) {
	p.freeIn = dropIndices(p.freeIn, inAsn)
	p.freeOut = dropIndices(p.freeOut, outAsn)
	p.repairs = append(p.repairs, reps...)
}

// dropIndices removes the given indices from a free list, preserving
// order of the survivors.
func dropIndices[T any](s []T, idx []int) []T {
	if len(idx) == 0 {
		return s
	}
	drop := make(map[int]bool, len(idx))
	for _, i := range idx {
		drop[i] = true
	}
	out := s[:0]
	for i := range s {
		if !drop[i] {
			out = append(out, s[i])
		}
	}
	return out
}

// mustDo panics on an impossible edit error: every precondition
// (existence, types, bounds) was checked during resolution, so a failure
// here is a programming error, not an input error.
func mustDo(err error) {
	if err != nil {
		panic(fmt.Sprintf("tsvrepair: internal edit failed: %v", err))
	}
}
