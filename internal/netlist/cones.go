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
// a sweep row scattered into a dense Row tests each partner set in what
// the partner holds instead of what the die spans.
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

// Row is a dense copy of one SparseSet: a scratch word row as wide as the
// sets' capacity, all zero except the words of the set last loaded. A
// pair test against the loaded set then indexes the row at the partner's
// words only — one AND and popcount per partner word, with no merge and
// no branch per word. Rows are scratch space, owned by one goroutine.
type Row struct {
	words  []uint64
	loaded SparseSet
}

// NewRow returns an all-zero row for sets able to hold n signals.
func NewRow(n int) *Row {
	return &Row{words: make([]uint64, (n+63)/64)}
}

// Load scatters s into the row. The row must be clear: Load writes only
// the words s holds, so bits of a set loaded earlier and not cleared would
// stay behind.
func (r *Row) Load(s SparseSet) {
	for _, w := range s.words {
		r.words[w.idx] = w.bits
	}
	r.loaded = s
}

// Clear zeroes the words the last Load wrote, leaving the row all zero.
func (r *Row) Clear() {
	for _, w := range r.loaded.words {
		r.words[w.idx] = 0
	}
	r.loaded = SparseSet{}
}

// IntersectCount returns the number of members s shares with the loaded
// set.
func (r *Row) IntersectCount(s SparseSet) int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(r.words[w.idx] & w.bits)
	}
	return c
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
	cone, _ := n.faninCone(id, nil)
	return cone
}

// faninCone is FaninCone with a caller-owned DFS stack: the traversal
// appends into the stack and hands it back so batch builders (NewConeSet
// workers) amortize one stack allocation across many cones. The caller
// must have run ensureDerived already — the walk reads the flat
// struct-of-arrays layout, not the Gate structs.
func (n *Netlist) faninCone(id SignalID, stack []SignalID) (*BitSet, []SignalID) {
	cone := NewBitSet(len(n.Gates))
	return cone, n.faninInto(id, cone, stack)
}

// faninInto walks id's fan-in cone into cone, which must be empty.
func (n *Netlist) faninInto(id SignalID, cone *BitSet, stack []SignalID) []SignalID {
	types, off, fanin := n.graph.Types, n.graph.FaninOff, n.graph.Fanin
	stack = append(stack[:0], id)
	cone.Set(id)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := types[s]
		if t.IsSource() || (t == GateDFF && s != id) {
			continue // stop at sequential/primary boundaries
		}
		for _, f := range fanin[off[s]:off[s+1]] {
			if !cone.Has(f) {
				cone.Set(f)
				stack = append(stack, f)
			}
		}
	}
	return stack
}

// FanoutCone returns the combinational fan-out cone of a signal: the signal
// itself plus everything reachable forward through combinational gates,
// stopping at (and including) flip-flop D pins. The flip-flop gate itself is
// included as the stopping point; its own fanout is not traversed.
func (n *Netlist) FanoutCone(id SignalID) *BitSet {
	n.ensureDerived()
	cone, _ := n.fanoutCone(id, nil)
	return cone
}

// fanoutCone is FanoutCone with a caller-owned DFS stack (see faninCone).
// The caller must have run ensureDerived already.
func (n *Netlist) fanoutCone(id SignalID, stack []SignalID) (*BitSet, []SignalID) {
	cone := NewBitSet(len(n.Gates))
	return cone, n.fanoutInto(id, cone, stack)
}

// fanoutInto walks id's fan-out cone into cone, which must be empty.
func (n *Netlist) fanoutInto(id SignalID, cone *BitSet, stack []SignalID) []SignalID {
	types, off, fanout := n.graph.Types, n.graph.FanoutOff, n.graph.Fanout
	stack = append(stack[:0], id)
	cone.Set(id)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if types[s] == GateDFF && s != id {
			continue // captured by a flip-flop; stop
		}
		for _, fo := range fanout[off[s]:off[s+1]] {
			if !cone.Has(fo) {
				cone.Set(fo)
				stack = append(stack, fo)
			}
		}
	}
	return stack
}

// ConeWalker walks cones into one reused set and DFS stack, for a caller
// that is done with each cone before it walks the next (the WCM edge sweep
// masks every cone into a SparseSet and drops it). A walker belongs to one
// goroutine.
type ConeWalker struct {
	n     *Netlist
	cone  *BitSet
	stack []SignalID
}

// NewConeWalker returns a walker over the netlist's cones.
func (n *Netlist) NewConeWalker() *ConeWalker {
	n.ensureDerived()
	return &ConeWalker{n: n, cone: NewBitSet(len(n.Gates))}
}

// Fanin returns FaninCone(id) in the walker's set, valid until its next
// walk.
func (w *ConeWalker) Fanin(id SignalID) *BitSet {
	clear(w.cone.words)
	w.stack = w.n.faninInto(id, w.cone, w.stack)
	return w.cone
}

// Fanout returns FanoutCone(id) in the walker's set, valid until its next
// walk.
func (w *ConeWalker) Fanout(id SignalID) *BitSet {
	clear(w.cone.words)
	w.stack = w.n.fanoutInto(id, w.cone, w.stack)
	return w.cone
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
	par.Do(w, len(signals), func(worker, i int) {
		s := signals[i]
		stack := stacks[worker]
		fi[i], stack = n.faninCone(s, stack)
		fo[i], stack = n.fanoutCone(s, stack)
		stacks[worker] = stack
	})
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
