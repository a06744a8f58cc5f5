package wcmgraph

import (
	"math/rand"
	"testing"
)

// graphSpec is a reusable recipe for rebuilding identical graphs cheaply
// inside a benchmark loop (no RNG on the hot path).
type graphSpec struct {
	nodes   int
	ff      []bool
	edges   [][2]int32
	overlap []bool
}

func makeSpec(nodes int, density float64, seed int64) *graphSpec {
	rng := rand.New(rand.NewSource(seed))
	sp := &graphSpec{nodes: nodes, ff: make([]bool, nodes)}
	for i := range sp.ff {
		sp.ff[i] = i%3 == 2
	}
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			if rng.Float64() < density {
				sp.edges = append(sp.edges, [2]int32{int32(a), int32(b)})
				sp.overlap = append(sp.overlap, rng.Intn(4) == 0)
			}
		}
	}
	return sp
}

func (sp *graphSpec) build() *Graph {
	g := New(sp.nodes)
	for i := 0; i < sp.nodes; i++ {
		node := Node{Load: 1}
		if sp.ff[i] {
			node.HasFF = true
			node.FF = int32(i)
		}
		if _, err := g.AddNode(node); err != nil {
			panic(err)
		}
	}
	for i, e := range sp.edges {
		if sp.overlap[i] {
			g.AddOverlapEdge(int(e[0]), int(e[1]))
		} else {
			g.AddEdge(int(e[0]), int(e[1]))
		}
	}
	return g
}

// BenchmarkPartition compares the batched Partition against
// PartitionScan, Algorithm 2 one pick at a time over the linear-scan
// reference, on a sparse 2k-node graph whose cliques stop fitting at three
// nodes. BenchmarkPartitionB22Die2 (package wcm) times a real phase graph.
func BenchmarkPartition(b *testing.B) {
	sp := makeSpec(2048, 0.004, 1)
	fits := func(a, b *Node) bool { return a.Load+b.Load < 4 }
	b.Logf("graph: %d nodes, %d edges", sp.nodes, len(sp.edges))
	for _, bc := range []struct {
		name string
		run  func(*Graph) (int, int, error)
	}{
		{"batched", func(g *Graph) (int, int, error) { return g.Partition(fits) }},
		{"scan", func(g *Graph) (int, int, error) { return g.PartitionScan(fits) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := sp.build()
				b.StartTimer()
				if _, _, err := bc.run(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
