package netlist

import (
	"math/bits"

	"wcm3d/internal/par"
)

// BitSet is a fixed-capacity bit vector keyed by SignalID. Cone membership
// of every TSV and flip-flop is stored this way so that the graph
// constructor can test fan-in/fan-out cone overlap in O(words) time.
type BitSet struct {
	words []uint64
	n     int
}

// NewBitSet returns a set able to hold n signals.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Set marks the signal as a member.
func (b *BitSet) Set(id SignalID) { b.words[id>>6] |= 1 << (uint(id) & 63) }

// Has reports membership.
func (b *BitSet) Has(id SignalID) bool {
	return b.words[id>>6]&(1<<(uint(id)&63)) != 0
}

// Count returns the number of members.
func (b *BitSet) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Intersects reports whether the two sets share any member. Both sets must
// have the same capacity.
func (b *BitSet) Intersects(o *BitSet) bool {
	for i, w := range b.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectCount returns the number of shared members.
func (b *BitSet) IntersectCount(o *BitSet) int {
	c := 0
	for i, w := range b.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// IntersectsExcluding reports whether the two sets share any member outside
// the excluded set.
func (b *BitSet) IntersectsExcluding(o, excl *BitSet) bool {
	for i, w := range b.words {
		if w&o.words[i]&^excl.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectCountExcluding counts shared members outside the excluded set.
func (b *BitSet) IntersectCountExcluding(o, excl *BitSet) int {
	c := 0
	for i, w := range b.words {
		c += bits.OnesCount64(w & o.words[i] &^ excl.words[i])
	}
	return c
}

// SparseSet is a read-only bit set stored as its nonzero words only, in
// ascending word order. The WCM edge sweep keeps every source-masked cone
// this way: on the large Table II dies such a cone holds about nine
// nonzero words, yet they lie spread over ~86% of the netlist's width, so
// a pair test that merges two short word lists costs what the cones hold
// instead of what the die spans.
type SparseSet struct {
	words []sparseWord
}

// sparseWord is one nonzero word of a SparseSet and its word index.
type sparseWord struct {
	idx  int32
	bits uint64
}

// SparseAndNot returns the members of b absent from excl as a SparseSet.
// Both sets must have the same capacity.
func (b *BitSet) SparseAndNot(excl *BitSet) SparseSet {
	nz := 0
	for i, w := range b.words {
		if w&^excl.words[i] != 0 {
			nz++
		}
	}
	s := SparseSet{words: make([]sparseWord, 0, nz)}
	for i, w := range b.words {
		if m := w &^ excl.words[i]; m != 0 {
			s.words = append(s.words, sparseWord{idx: int32(i), bits: m})
		}
	}
	return s
}

// IntersectCount returns the number of shared members: a merge of the two
// ascending word lists that ANDs only the words both sets hold.
func (s SparseSet) IntersectCount(o SparseSet) int {
	a, b := s.words, o.words
	c, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].idx < b[j].idx:
			i++
		case a[i].idx > b[j].idx:
			j++
		default:
			c += bits.OnesCount64(a[i].bits & b[j].bits)
			i++
			j++
		}
	}
	return c
}

// Or merges o into b.
func (b *BitSet) Or(o *BitSet) {
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Members returns the member IDs in ascending order.
func (b *BitSet) Members() []SignalID {
	var out []SignalID
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, SignalID(wi*64+bit))
			w &= w - 1
		}
	}
	return out
}

// Clone returns a copy.
func (b *BitSet) Clone() *BitSet {
	return &BitSet{words: append([]uint64(nil), b.words...), n: b.n}
}

// FaninCone returns the combinational fan-in cone of a signal: the signal
// itself plus everything reachable backward through combinational gates,
// stopping at (and including) sources and flip-flop outputs.
func (n *Netlist) FaninCone(id SignalID) *BitSet {
	n.ensureDerived()
	cone, _ := n.faninCone(id, nil, nil)
	return cone
}

// faninCone is FaninCone with a caller-owned DFS stack and an optional
// arena: the traversal appends into the stack and hands it back so batch
// builders (NewConeSet workers) amortize one stack allocation across many
// cones, and the cone bitset draws from the arena's recycled storage when
// one is supplied. The caller must have run ensureDerived already — the
// walk reads the flat struct-of-arrays layout, not the Gate structs.
func (n *Netlist) faninCone(id SignalID, stack []SignalID, a *Arena) (*BitSet, []SignalID) {
	cone := a.NewBitSet(len(n.Gates))
	stack = append(stack[:0], id)
	cone.Set(id)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := n.gateType[s]
		if t.IsSource() || (t == GateDFF && s != id) {
			continue // stop at sequential/primary boundaries
		}
		for _, f := range n.faninFlat[n.faninOff[s]:n.faninOff[s+1]] {
			if !cone.Has(f) {
				cone.Set(f)
				stack = append(stack, f)
			}
		}
	}
	return cone, stack
}

// FanoutCone returns the combinational fan-out cone of a signal: the signal
// itself plus everything reachable forward through combinational gates,
// stopping at (and including) flip-flop D pins. The flip-flop gate itself is
// included as the stopping point; its own fanout is not traversed.
func (n *Netlist) FanoutCone(id SignalID) *BitSet {
	n.ensureDerived()
	cone, _ := n.fanoutCone(id, nil, nil)
	return cone
}

// fanoutCone is FanoutCone with a caller-owned DFS stack and an optional
// arena (see faninCone). The caller must have run ensureDerived already.
func (n *Netlist) fanoutCone(id SignalID, stack []SignalID, a *Arena) (*BitSet, []SignalID) {
	cone := a.NewBitSet(len(n.Gates))
	stack = append(stack[:0], id)
	cone.Set(id)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.gateType[s] == GateDFF && s != id {
			continue // captured by a flip-flop; stop
		}
		for _, fo := range n.fanoutFlat[n.fanoutOff[s]:n.fanoutOff[s+1]] {
			if !cone.Has(fo) {
				cone.Set(fo)
				stack = append(stack, fo)
			}
		}
	}
	return cone, stack
}

// ConeSet holds the precomputed fan-in and fan-out cones for the signals
// the WCM flow cares about (flip-flops and TSV endpoints). Building cones
// once up front turns every pairwise overlap test during graph construction
// into a cheap bitset intersection.
//
// Concurrency: lookups of precomputed signals are read-only and safe from
// any number of goroutines. Looking up a signal that was NOT precomputed
// fills the cache and is not safe concurrently — parallel consumers must
// restrict themselves to the signals the set was built with.
type ConeSet struct {
	netlist *Netlist
	fanin   map[SignalID]*BitSet
	fanout  map[SignalID]*BitSet
}

// NewConeSet precomputes cones for the given signals, using every core.
func NewConeSet(n *Netlist, signals []SignalID) *ConeSet {
	return NewConeSetWorkers(n, signals, 0)
}

// NewConeSetWorkers is NewConeSet over a bounded worker pool (<= 0 means
// GOMAXPROCS). Each cone is an independent read-only traversal of the
// netlist, so the per-signal DFS fans out across workers; each worker
// reuses one DFS stack across all the cones it builds. The result is
// identical for every worker count.
func NewConeSetWorkers(n *Netlist, signals []SignalID, workers int) *ConeSet {
	return NewConeSetArena(n, signals, workers, nil)
}

// NewConeSetArena is NewConeSetWorkers with the cone bitsets drawn from
// an arena (nil for plain allocation). The cones live exactly as long as
// the arena: callers that Release must not touch the ConeSet afterwards.
// Cone contents are bit-identical to the unpooled build at every worker
// count — the arena only changes where the words come from.
func NewConeSetArena(n *Netlist, signals []SignalID, workers int, a *Arena) *ConeSet {
	cs := &ConeSet{
		netlist: n,
		fanin:   make(map[SignalID]*BitSet, len(signals)),
		fanout:  make(map[SignalID]*BitSet, len(signals)),
	}
	// The fanout index is built lazily under a plain flag; force it here so
	// the workers only ever read derived state.
	n.ensureDerived()
	w := par.Workers(workers, len(signals))
	fi := make([]*BitSet, len(signals))
	fo := make([]*BitSet, len(signals))
	stacks := make([][]SignalID, w)
	for i := range stacks {
		stacks[i] = getStack()
	}
	par.Do(w, len(signals), func(worker, i int) {
		s := signals[i]
		stack := stacks[worker]
		fi[i], stack = n.faninCone(s, stack, a)
		fo[i], stack = n.fanoutCone(s, stack, a)
		stacks[worker] = stack
	})
	for i := range stacks {
		putStack(stacks[i])
	}
	for i, s := range signals {
		cs.fanin[s] = fi[i]
		cs.fanout[s] = fo[i]
	}
	return cs
}

// Fanin returns the precomputed fan-in cone, computing and caching it if the
// signal was not in the initial set.
func (cs *ConeSet) Fanin(s SignalID) *BitSet {
	c, ok := cs.fanin[s]
	if !ok {
		c = cs.netlist.FaninCone(s)
		cs.fanin[s] = c
	}
	return c
}

// Fanout returns the precomputed fan-out cone, computing and caching it if
// the signal was not in the initial set.
func (cs *ConeSet) Fanout(s SignalID) *BitSet {
	c, ok := cs.fanout[s]
	if !ok {
		c = cs.netlist.FanoutCone(s)
		cs.fanout[s] = c
	}
	return c
}

// FanoutOverlap reports whether the fan-out cones of two signals share any
// gate — the condition the paper's Algorithm 1 tests before allowing a scan
// flip-flop to be shared "safely" with an inbound TSV.
func (cs *ConeSet) FanoutOverlap(a, b SignalID) bool {
	return cs.Fanout(a).Intersects(cs.Fanout(b))
}

// FaninOverlap reports whether the fan-in cones of two signals share any
// gate — the analogous condition on the observation side (outbound TSVs).
func (cs *ConeSet) FaninOverlap(a, b SignalID) bool {
	return cs.Fanin(a).Intersects(cs.Fanin(b))
}
