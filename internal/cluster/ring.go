// Package cluster implements static-membership clustering for the wcmd
// daemon: consistent-hash ownership of prepared-die keys (so each die is
// generated and cached on exactly one node), liveness probing of peers,
// and pull-based work-stealing of queued jobs. The service core stays
// unaware of any of this — it sees the package only through the
// service.ClusterView interface.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over node ids. Each node holds vnodes
// virtual tokens so ownership spreads evenly even with two or three
// nodes; lookups walk clockwise from the key's hash to the first token
// whose node passes the liveness filter, which is what makes ownership
// fail over automatically when a node dies and snap back when it returns.
type ring struct {
	vnodes int
	tokens []token // sorted by hash
}

type token struct {
	hash uint64
	node string
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV alone leaves the high bits of short, similar strings badly
	// mixed (every "n1#i" token lands in the same half of the space,
	// collapsing the ring onto one node); a splitmix64-style avalanche
	// finalizer spreads tokens and keys over the full uint64 range.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ringVNodes is the virtual-token count per node. Every node must use the
// same count to agree on die ownership, so it is fixed, not configurable.
const ringVNodes = 64

// newRing builds the ring for a fixed node set. Membership is static for
// the life of the process (the -peers flag), so the token table never
// changes after construction and lookups need no locking.
func newRing(nodes []string, vnodes int) *ring {
	r := &ring{vnodes: vnodes}
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			r.tokens = append(r.tokens, token{hash: hash64(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.tokens, func(a, b int) bool {
		ta, tb := r.tokens[a], r.tokens[b]
		if ta.hash != tb.hash {
			return ta.hash < tb.hash
		}
		return ta.node < tb.node
	})
	return r
}

// lookup returns the node owning key under the current liveness view:
// the first clockwise token whose node alive() accepts. With every node
// dead it falls back to the raw owner so the result is never empty.
func (r *ring) lookup(key string, alive func(string) bool) string {
	if len(r.tokens) == 0 {
		return ""
	}
	h := hash64(key)
	start := sort.Search(len(r.tokens), func(i int) bool { return r.tokens[i].hash >= h })
	for i := 0; i < len(r.tokens); i++ {
		t := r.tokens[(start+i)%len(r.tokens)]
		if alive == nil || alive(t.node) {
			return t.node
		}
	}
	return r.tokens[start%len(r.tokens)].node
}

// tokensPerNode reports how many tokens each node holds — the shard map
// served at GET /v1/cluster.
func (r *ring) tokensPerNode() map[string]int {
	m := make(map[string]int)
	for _, t := range r.tokens {
		m[t.node]++
	}
	return m
}
