package experiments

import (
	"testing"

	"wcm3d/internal/netgen"
)

// preparedSink keeps the benchmarked dies alive.
var preparedSink *Die

// BenchmarkPrepareDie prepares the four b20 dies at seed 1, one op per
// family: netgen, placement, repeater insertion, the full-wrap probe and
// the bare-die timing, and the fault lists.
func BenchmarkPrepareDie(b *testing.B) {
	profs := netgen.ITC99Circuit("b20")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range profs {
			d, err := PrepareDie(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			preparedSink = d
		}
	}
}
