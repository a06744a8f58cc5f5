package verify

import (
	"fmt"
	"testing"

	"wcm3d/internal/wcm"
)

// TestCertifyWCMPlans is the acceptance gate for the optimizer's own test
// shapes: every plan `go test ./internal/wcm` exercises — across worker
// counts 1, 2 and 8 and the main option axes — must certify with zero
// violations. The parallel sweep promises bit-identical plans at every
// worker count; the verifier holds each of them to the full contract
// independently, so a striping bug that slipped past the determinism tests
// would surface here as a violation.
func TestCertifyWCMPlans(t *testing.T) {
	shapes := []struct {
		gates, ffs, in, out int
		seed                int64
	}{
		{300, 12, 8, 8, 1},
		{400, 20, 12, 12, 3},
		{500, 16, 14, 14, 7},
		{400, 6, 12, 12, 9},
	}
	variants := []struct {
		name string
		opts func() wcm.Options
	}{
		{"ours", wcm.DefaultOptions},
		{"no-overlap", func() wcm.Options {
			o := wcm.DefaultOptions()
			o.AllowOverlap = false
			return o
		}},
		{"agrawal", func() wcm.Options {
			o := wcm.DefaultOptions()
			o.Order = wcm.OrderInboundFirst
			o.Timing = wcm.TimingCapOnly
			o.AllowOverlap = false
			return o
		}},
	}
	for _, s := range shapes {
		in := prep(t, s.gates, s.ffs, s.in, s.out, s.seed)
		for _, v := range variants {
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("g%d_ff%d_%s_w%d", s.gates, s.ffs, v.name, workers)
				t.Run(name, func(t *testing.T) {
					opts := v.opts()
					opts.Workers = workers
					runAndVerify(t, in, opts)
				})
			}
		}
	}
}
