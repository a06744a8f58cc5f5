// Package place assigns physical (x, y) coordinates to every gate, TSV pad
// and output port of a die. It substitutes for the 3D-Craft physical-design
// flow the paper used: the wrapper-cell algorithms only consume two
// artefacts of physical design — pairwise Manhattan distance (the d_th edge
// filter in graph construction) and wire lengths (the wire-delay term of the
// timing model) — and this package produces both.
//
// The placer is deliberately simple but produces realistic structure:
// gates start at positions derived from their logic level (inputs on the
// left, deep logic on the right), TSV pads sit on a regular array across the
// die as in via-middle 3D processes, and a configurable number of
// force-directed sweeps pulls connected cells together, shortening most
// nets while leaving the long cross-die nets that make wire-aware timing
// matter.
package place

import (
	"fmt"
	"math"
	"math/rand"

	"wcm3d/internal/netlist"
)

// Point is a location on the die, in µm.
type Point struct {
	X, Y float64
}

// ManhattanTo returns the Manhattan distance between two points.
func (p Point) ManhattanTo(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Options configures the placer. The zero value is usable: defaults are
// substituted for unset fields.
type Options struct {
	// Sweeps is the number of force-directed refinement passes.
	// Default 8.
	Sweeps int
	// TSVPitchUM is the minimum TSV array pitch. Dies with many TSVs are
	// sized by the array, not by cell area — on small partitioned dies
	// the TSV array dominates the footprint. Default 20 µm.
	TSVPitchUM float64
	// Seed makes placement deterministic. Two calls with equal inputs
	// and seeds produce identical placements.
	Seed int64
}

const (
	// cellAreaUM2 is the average standard-cell footprint used to size
	// the die (45 nm-class).
	cellAreaUM2 = 4.0
	// utilization is the fraction of die area occupied by cells.
	utilization = 0.65
)

func (o Options) withDefaults() Options {
	if o.Sweeps <= 0 {
		o.Sweeps = 8
	}
	if o.TSVPitchUM <= 0 {
		o.TSVPitchUM = 20
	}
	return o
}

// Placement holds the result: a coordinate for every signal (indexed by
// SignalID) and for every output port (indexed by output index).
type Placement struct {
	// Netlist is the placed die.
	Netlist *netlist.Netlist
	// Width and Height are the die dimensions in µm.
	Width, Height float64
	// Coords[id] is the location of the gate driving signal id.
	Coords []Point
	// OutCoords[i] is the pad location of output port i (for outbound
	// TSVs this is the TSV pillar position, distinct from the driving
	// gate's position).
	OutCoords []Point
}

// Distance returns the Manhattan distance between two signals' cells.
func (p *Placement) Distance(a, b netlist.SignalID) float64 {
	return p.Coords[a].ManhattanTo(p.Coords[b])
}

// Place computes a placement for the die.
func Place(n *netlist.Netlist, opts Options) (*Placement, error) {
	opts = opts.withDefaults()
	if n.NumGates() == 0 {
		return nil, fmt.Errorf("place: netlist %q is empty", n.Name)
	}
	side := math.Sqrt(float64(n.NumGates()) * cellAreaUM2 / utilization)
	// The die must also fit its TSV arrays at the process pitch.
	maxTSVs := len(n.InboundTSVs())
	if o := len(n.OutboundTSVs()); o > maxTSVs {
		maxTSVs = o
	}
	if arraySide := math.Ceil(math.Sqrt(float64(maxTSVs))) * opts.TSVPitchUM; arraySide > side {
		side = arraySide
	}
	p := &Placement{
		Netlist:   n,
		Width:     side,
		Height:    side,
		Coords:    make([]Point, n.NumGates()),
		OutCoords: make([]Point, len(n.Outputs)),
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	p.seedByLevel(rng)
	p.placeTSVArray(rng)
	p.placeIOPads()
	for s := 0; s < opts.Sweeps; s++ {
		p.forceSweep()
	}
	p.placeOutPads(rng)
	return p, nil
}

// seedByLevel gives every gate an initial x proportional to its logic level
// and a y spread across the die, with jitter so identical levels do not
// stack.
func (p *Placement) seedByLevel(rng *rand.Rand) {
	g := p.Netlist.Graph()
	maxLvl := g.MaxLevel()
	if maxLvl == 0 {
		maxLvl = 1
	}
	counts := make([]int, maxLvl+1)
	for _, lvl := range g.Level {
		counts[lvl]++
	}
	idxInLvl := make([]int, maxLvl+1)
	for i, lvl := range g.Level {
		id := netlist.SignalID(i)
		x := (float64(lvl) + 0.5) / float64(maxLvl+1) * p.Width
		y := (float64(idxInLvl[lvl]) + 0.5) / float64(counts[lvl]) * p.Height
		idxInLvl[lvl]++
		x += (rng.Float64() - 0.5) * p.Width / float64(maxLvl+1)
		y += (rng.Float64() - 0.5) * p.Height * 0.05
		p.Coords[id] = p.clamp(Point{x, y})
	}
}

// placeTSVArray pins inbound TSV pads to a regular array across the die,
// as a via-middle process would, ignoring the level-based seed.
func (p *Placement) placeTSVArray(rng *rand.Rand) {
	tsvs := p.Netlist.InboundTSVs()
	if len(tsvs) == 0 {
		return
	}
	cols := int(math.Ceil(math.Sqrt(float64(len(tsvs)))))
	rows := (len(tsvs) + cols - 1) / cols
	for i, id := range tsvs {
		c, r := i%cols, i/cols
		x := (float64(c) + 0.5) / float64(cols) * p.Width
		y := (float64(r) + 0.5) / float64(rows) * p.Height
		x += (rng.Float64() - 0.5) * p.Width / float64(cols) * 0.3
		y += (rng.Float64() - 0.5) * p.Height / float64(rows) * 0.3
		p.Coords[id] = p.clamp(Point{x, y})
	}
}

// placeIOPads pins primary inputs to the west edge.
func (p *Placement) placeIOPads() {
	ins := p.Netlist.Inputs()
	for i, id := range ins {
		y := (float64(i) + 0.5) / float64(len(ins)) * p.Height
		p.Coords[id] = Point{0, y}
	}
}

// placeOutPads positions output-port pads: primary outputs on the east
// edge, outbound TSV pads on the same regular array geometry as inbound
// pads (offset half a pitch so the two arrays interleave).
func (p *Placement) placeOutPads(rng *rand.Rand) {
	n := p.Netlist
	pos := n.PrimaryOutputs()
	for i, outIdx := range pos {
		y := (float64(i) + 0.5) / float64(len(pos)) * p.Height
		p.OutCoords[outIdx] = Point{p.Width, y}
	}
	touts := n.OutboundTSVs()
	if len(touts) == 0 {
		return
	}
	cols := int(math.Ceil(math.Sqrt(float64(len(touts)))))
	rows := (len(touts) + cols - 1) / cols
	for i, outIdx := range touts {
		c, r := i%cols, i/cols
		x := (float64(c)+1.0)/float64(cols)*p.Width - p.Width/(2*float64(cols))*0.5
		y := (float64(r)+1.0)/float64(rows)*p.Height - p.Height/(2*float64(rows))*0.5
		x += (rng.Float64() - 0.5) * p.Width / float64(cols) * 0.3
		y += (rng.Float64() - 0.5) * p.Height / float64(rows) * 0.3
		p.OutCoords[outIdx] = p.clamp(Point{x, y})
	}
}

// forceSweep moves every movable cell toward the centroid of its connected
// pins. Inputs and TSV pads stay fixed (they are pads/pillars).
func (p *Placement) forceSweep() {
	n := p.Netlist
	graph := n.Graph()
	for i := range n.Gates {
		id := netlist.SignalID(i)
		g := n.Gate(id)
		if g.Type.IsSource() {
			continue // pads and pillars are fixed
		}
		var sx, sy float64
		cnt := 0
		for _, f := range g.Fanin {
			sx += p.Coords[f].X
			sy += p.Coords[f].Y
			cnt++
		}
		for _, fo := range graph.FanoutOf(id) {
			sx += p.Coords[fo].X
			sy += p.Coords[fo].Y
			cnt++
		}
		if cnt == 0 {
			continue
		}
		target := Point{sx / float64(cnt), sy / float64(cnt)}
		cur := p.Coords[id]
		// Move 60% of the way to the centroid: full moves oscillate.
		p.Coords[id] = p.clamp(Point{
			cur.X + 0.6*(target.X-cur.X),
			cur.Y + 0.6*(target.Y-cur.Y),
		})
	}
}

func (p *Placement) clamp(pt Point) Point {
	if pt.X < 0 {
		pt.X = 0
	}
	if pt.X > p.Width {
		pt.X = p.Width
	}
	if pt.Y < 0 {
		pt.Y = 0
	}
	if pt.Y > p.Height {
		pt.Y = p.Height
	}
	return pt
}

// TotalWireLength sums the Manhattan length of every net (driver to each
// sink); a quality metric used in tests and reports.
func (p *Placement) TotalWireLength() float64 {
	n := p.Netlist
	total := 0.0
	for i := range n.Gates {
		for _, f := range n.Gates[i].Fanin {
			total += p.Distance(f, netlist.SignalID(i))
		}
	}
	for i, o := range n.Outputs {
		total += p.Coords[o.Signal].ManhattanTo(p.OutCoords[i])
	}
	return total
}
