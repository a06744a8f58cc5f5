package wcm_test

import (
	"os"
	"testing"

	"wcm3d/internal/experiments"
	"wcm3d/internal/netgen"
	"wcm3d/internal/wcm"
	"wcm3d/internal/wcmgraph"
)

// TestPartitionMatchesScanOnDies holds the batched partition to Algorithm 2
// one pick at a time over the scan reference (wcm.PartitionCheck) on both
// phases of the real Table II dies at seed 1: b11 and b12 by default, all
// 24 dies under WCM3D_FULL_EQUIV=1.
func TestPartitionMatchesScanOnDies(t *testing.T) {
	profiles := append(netgen.ITC99Circuit("b11"), netgen.ITC99Circuit("b12")...)
	if os.Getenv("WCM3D_FULL_EQUIV") != "" {
		profiles = netgen.ITC99Profiles()
	}
	for _, p := range profiles {
		d, err := experiments.PrepareDie(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		merges, err := wcm.PartitionCheck(d.Input(), ourTightOptions(d))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		t.Logf("%s: %d merges", p.Name(), merges)
	}
}

// BenchmarkPartitionB22Die2 times Algorithm 2 alone on a real phase graph:
// the first phase of b22/Die2 at seed 1 (1,245 nodes, 622k edges, about a
// thousand merges against 69k edge deletes). Each iteration partitions a
// fresh copy of the graph, loaded outside the timer.
func BenchmarkPartitionB22Die2(b *testing.B) {
	var prof netgen.Profile
	for _, p := range netgen.ITC99Circuit("b22") {
		if p.Name() == "b22/Die2" {
			prof = p
		}
	}
	d, err := experiments.PrepareDie(prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, fits, err := wcm.FirstPhaseGraph(d.Input(), ourTightOptions(d))
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumAlive()
	nodes := make([]wcmgraph.Node, n)
	adj, clean := make([][]uint64, n), make([][]uint64, n)
	for id := range nodes {
		nodes[id] = *g.Node(id)
		a, c := g.BulkRows(id)
		adj[id], clean[id] = append([]uint64(nil), a...), append([]uint64(nil), c...)
	}
	edges := g.NumEdges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := wcmgraph.New(n)
		for id := range nodes {
			if _, err := g.AddNode(nodes[id]); err != nil {
				b.Fatal(err)
			}
			a, c := g.BulkRows(id)
			copy(a, adj[id])
			copy(c, clean[id])
		}
		g.FinishBulkEdges()
		b.StartTimer()
		merges, deletes, err := g.Partition(fits)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(merges), "merges")
		b.ReportMetric(float64(deletes), "deletes")
	}
	b.ReportMetric(float64(edges), "edges")
}
