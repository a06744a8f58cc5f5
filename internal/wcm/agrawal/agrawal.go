// Package agrawal configures the WCM engine to reproduce the method of
// M. Agrawal, K. Chakrabarty and R. Widialaksono, "Reuse-based optimization
// for prebond and post-bond testing of 3-D-stacked ICs" (IEEE TCAD 34(1),
// 2015) — the prior work the paper compares against:
//
//   - fixed inbound-first processing order (no TSV-set analysis);
//   - capacitance-only timing model: pin loads bound the sharing, wire
//     length is invisible (no distance threshold);
//   - no overlapped fan-in/fan-out cones — a scan flip-flop is shared only
//     when sharing provably cannot reduce coverage.
//
// The same clique-partitioning engine runs underneath, so every difference
// in the results tables is attributable to the three modeling deltas.
package agrawal

import (
	"math"

	"wcm3d/internal/wcm"
)

// Options returns the Agrawal configuration with the given capacitance
// threshold (cap_th, fF).
func Options(capThFF float64) wcm.Options {
	return wcm.Options{
		CapThFF:      capThFF,
		SlackThPS:    math.Inf(-1), // no slack screening
		DistThUM:     math.Inf(1),  // no distance screening
		AllowOverlap: false,
		Order:        wcm.OrderInboundFirst,
		Timing:       wcm.TimingCapOnly,
	}
}

// Run executes Agrawal's method on a die.
func Run(in wcm.Input, capThFF float64) (*wcm.Result, error) {
	return wcm.Run(in, Options(capThFF))
}
