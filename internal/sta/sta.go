// Package sta implements static timing analysis over a placed gate-level
// netlist — the reproduction's stand-in for PrimeTime. It computes, for
// every signal, the quantities the wrapper-cell flow consumes:
//
//   - capacitive load (gate pins + wire + TSV pads), the paper's
//     capacity_load(n) for inbound TSVs and the cap side of the merge test
//     in Algorithm 2;
//   - arrival time, required time and slack under a clock-period
//     constraint, the paper's slack(n) for outbound TSVs;
//   - worst negative slack and the endpoint violation list used to judge
//     "timing violation" in Table III.
//
// The delay model is a linear (first-order Elmore) model: a gate's delay is
// intrinsic + Rdrive·Cload where Cload includes fanout pin capacitance and
// routed wire capacitance from the placement; each wire adds a distributed
// RC term on top. When no placement is supplied the wire terms vanish and
// the model degrades to exactly the capacitance-only model the paper
// attributes to Agrawal et al. — the ablation Table III turns on.
package sta

import (
	"fmt"
	"math"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
)

// Config parameterizes an analysis run.
type Config struct {
	// ClockPS is the clock period constraint in picoseconds.
	ClockPS float64
	// SetupPS is the flip-flop setup time subtracted from the clock
	// period at capture endpoints. Default 30 ps.
	SetupPS float64
	// Placement supplies wire lengths. Nil means "capacitance-only"
	// timing (no wire delay, no wire cap) — Agrawal's model.
	Placement *place.Placement
	// TieLow lists signals assumed constant 0 for path sensitization —
	// case analysis, as signoff tools apply to test-enable pins. A MUX
	// whose select is tied low is timed through its first data pin only;
	// the de-selected branch still contributes capacitive load (the
	// hardware is physically there) but no timed path. Only MUX selects
	// honor the tie; other uses of the signal time normally.
	TieLow []netlist.SignalID
}

func (c Config) withDefaults() Config {
	if c.SetupPS == 0 {
		c.SetupPS = 30
	}
	return c
}

// Result is a completed timing analysis.
type Result struct {
	// Netlist is the analyzed netlist; nil for an AnalyzeGraph result.
	Netlist *netlist.Netlist
	Lib     *cells.Library
	Config  Config

	// LoadFF[id] is the total capacitive load (fF) driven by signal id.
	LoadFF []float64
	// DelayPS[id] is the propagation delay (ps) of the gate driving id.
	DelayPS []float64
	// ArrivalPS[id] is the latest arrival time at the output of gate id.
	ArrivalPS []float64
	// RequiredPS[id] is the earliest required time at the output of
	// gate id; +Inf for signals with no timed endpoint downstream.
	RequiredPS []float64

	c *circuit
}

// circuit is what the passes read: the flat connectivity, the output
// ports, the library's per-type parameters looked up once, and — when
// placed — coordinates indexed like the signals.
type circuit struct {
	g                 *netlist.Graph
	outs              []netlist.Output
	lib               *cells.Library
	par               [256]cells.Params // lib.Of for every GateType
	placed            bool
	coords, outCoords []place.Point
	tied              []bool // MUX selects tied low; nil when none are
}

func newCircuit(g *netlist.Graph, outs []netlist.Output, lib *cells.Library, cfg Config) *circuit {
	c := &circuit{g: g, outs: outs, lib: lib}
	for t := range c.par {
		c.par[t] = lib.Of(netlist.GateType(t))
	}
	if pl := cfg.Placement; pl != nil {
		c.placed, c.coords, c.outCoords = true, pl.Coords, pl.OutCoords
	}
	if len(cfg.TieLow) > 0 {
		c.tied = make([]bool, g.NumGates())
		for _, s := range cfg.TieLow {
			if s >= 0 && int(s) < len(c.tied) {
				c.tied[s] = true
			}
		}
	}
	return c
}

// Analyze runs a full timing analysis.
func Analyze(n *netlist.Netlist, lib *cells.Library, cfg Config) (*Result, error) {
	if cfg.Placement != nil && cfg.Placement.Netlist != n {
		return nil, fmt.Errorf("sta: placement belongs to netlist %q, analyzing %q",
			cfg.Placement.Netlist.Name, n.Name)
	}
	r, err := AnalyzeGraph(n.Graph(), n.Outputs, lib, cfg)
	if err != nil {
		return nil, err
	}
	r.Netlist = n
	return r, nil
}

// AnalyzeGraph runs a full timing analysis of a circuit given in flat
// form: its connectivity and output ports, with cfg.Placement supplying
// coordinates indexed like the graph's signals and ports (its Netlist
// field is not consulted). This is how a view that was never
// materialized as a Netlist gets timed; the Result's Netlist is nil.
func AnalyzeGraph(g *netlist.Graph, outs []netlist.Output, lib *cells.Library, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.ClockPS <= 0 {
		return nil, fmt.Errorf("sta: clock period must be positive, got %v", cfg.ClockPS)
	}
	if pl := cfg.Placement; pl != nil && (len(pl.Coords) < g.NumGates() || len(pl.OutCoords) < len(outs)) {
		return nil, fmt.Errorf("sta: placement covers %d signals and %d ports, circuit has %d and %d",
			len(pl.Coords), len(pl.OutCoords), g.NumGates(), len(outs))
	}
	nG := g.NumGates()
	r := &Result{
		Lib:        lib,
		Config:     cfg,
		LoadFF:     make([]float64, nG),
		DelayPS:    make([]float64, nG),
		ArrivalPS:  make([]float64, nG),
		RequiredPS: make([]float64, nG),
		c:          newCircuit(g, outs, lib, cfg),
	}
	r.computeLoads()
	r.computeDelays()
	r.computeArrivals()
	r.computeRequired()
	return r, nil
}

// AtClock re-times the analysis under another clock period. Loads,
// delays and arrivals do not depend on the clock, so the new Result
// shares them with r; only the required times are recomputed.
func (r *Result) AtClock(clockPS float64) (*Result, error) {
	if clockPS <= 0 {
		return nil, fmt.Errorf("sta: clock period must be positive, got %v", clockPS)
	}
	at := *r
	at.Config.ClockPS = clockPS
	at.c = r.circ()
	at.RequiredPS = make([]float64, len(r.RequiredPS))
	at.computeRequired()
	return &at, nil
}

// circ returns the circuit the result times. A Result assembled by hand
// (a projection onto a base netlist) gets one built from its Netlist and
// Config on every call, so concurrent readers never write to it.
func (r *Result) circ() *circuit {
	if r.c != nil {
		return r.c
	}
	return newCircuit(r.Netlist.Graph(), r.Netlist.Outputs, r.Lib, r.Config)
}

// timedFanin returns the fanin pins of id that are timed: for a MUX whose
// select is tied low, only pin 1; otherwise all pins.
func (c *circuit) timedFanin(id netlist.SignalID) []netlist.SignalID {
	fanin := c.g.FaninOf(id)
	if c.tied != nil && c.g.Types[id] == netlist.GateMux2 && c.tied[fanin[0]] {
		return fanin[1:2]
	}
	return fanin
}

// computeLoads sums, for every signal, the input capacitance of each fanout
// pin, the wire capacitance to each sink (if placed), and the TSV pad
// capacitance (plus wire) for outbound-TSV ports.
func (r *Result) computeLoads() {
	c := r.c
	g, lib := c.g, c.lib
	for i := range r.LoadFF {
		var load float64
		for _, fo := range g.FanoutOf(netlist.SignalID(i)) {
			load += c.par[g.Types[fo]].InputCapFF
			if c.placed {
				load += lib.WireCapFF(c.coords[i].ManhattanTo(c.coords[fo]))
			}
		}
		r.LoadFF[i] = load
	}
	for oi, o := range c.outs {
		extra := 0.0
		if o.Class == netlist.PortTSVOut {
			extra = lib.TSVCapFF
		}
		if c.placed {
			extra += lib.WireCapFF(c.coords[o.Signal].ManhattanTo(c.outCoords[oi]))
		}
		r.LoadFF[o.Signal] += extra
	}
}

func (r *Result) computeDelays() {
	c := r.c
	for i, t := range c.g.Types {
		p := c.par[t]
		r.DelayPS[i] = p.IntrinsicPS + p.DriveResKOhm*r.LoadFF[i]
	}
}

// wirePS is the per-sink incremental wire delay from signal `from` to the
// gate (or pad) at location of `to`.
func (c *circuit) wirePS(from, to netlist.SignalID) float64 {
	if !c.placed {
		return 0
	}
	return c.lib.WireDelayPS(c.coords[from].ManhattanTo(c.coords[to]), c.par[c.g.Types[from]].DriveResKOhm)
}

func (c *circuit) wireToOutPS(from netlist.SignalID, outIdx int) float64 {
	if !c.placed {
		return 0
	}
	return c.lib.WireDelayPS(c.coords[from].ManhattanTo(c.outCoords[outIdx]), c.par[c.g.Types[from]].DriveResKOhm)
}

// forEachFF calls fn with every flip-flop and the signal on its D pin.
func (c *circuit) forEachFF(fn func(ff, d netlist.SignalID)) {
	for i, t := range c.g.Types {
		if t == netlist.GateDFF {
			fn(netlist.SignalID(i), c.g.Fanin[c.g.FaninOff[i]])
		}
	}
}

// computeArrivals propagates arrival times in topological order. Sources
// launch at t=0 except flip-flops, which launch at their clk-to-Q delay.
func (r *Result) computeArrivals() {
	c := r.c
	for _, id := range c.g.Order {
		switch t := c.g.Types[id]; {
		case t == netlist.GateDFF:
			r.ArrivalPS[id] = r.DelayPS[id] // clk->Q
		case t.IsSource():
			r.ArrivalPS[id] = 0
		default:
			worst := 0.0
			for _, f := range c.timedFanin(id) {
				if at := r.ArrivalPS[f] + c.wirePS(f, id); at > worst {
					worst = at
				}
			}
			r.ArrivalPS[id] = worst + r.DelayPS[id]
		}
	}
}

// computeRequired propagates required times backward. Endpoints are
// flip-flop D pins and output ports, both required at clock - setup.
func (r *Result) computeRequired() {
	c := r.c
	deadline := r.Config.ClockPS - r.Config.SetupPS
	for i := range r.RequiredPS {
		r.RequiredPS[i] = math.Inf(1)
	}
	for oi, o := range c.outs {
		req := deadline - c.wireToOutPS(o.Signal, oi)
		if req < r.RequiredPS[o.Signal] {
			r.RequiredPS[o.Signal] = req
		}
	}
	// Seed every capture endpoint BEFORE the backward sweep: flip-flops
	// sit early in the topological order (their Q is a source), so
	// handling their D pins during the reverse walk would set the
	// endpoint after its fan-in cone had already been processed, leaving
	// everything upstream optimistically untimed.
	c.forEachFF(func(ff, d netlist.SignalID) {
		req := deadline - c.wirePS(d, ff)
		if req < r.RequiredPS[d] {
			r.RequiredPS[d] = req
		}
	})
	order := c.g.Order
	for k := len(order) - 1; k >= 0; k-- {
		id := order[k]
		if t := c.g.Types[id]; t == netlist.GateDFF || t.IsSource() {
			continue // endpoints seeded above; sources have no fanin
		}
		for _, f := range c.timedFanin(id) {
			req := r.RequiredPS[id] - r.DelayPS[id] - c.wirePS(f, id)
			if req < r.RequiredPS[f] {
				r.RequiredPS[f] = req
			}
		}
	}
}

// SlackPS returns the timing slack of a signal: required - arrival.
// Signals with no timed endpoint downstream have +Inf slack.
func (r *Result) SlackPS(id netlist.SignalID) float64 {
	return r.RequiredPS[id] - r.ArrivalPS[id]
}

// WNS returns the worst negative slack over all signals (the most negative
// slack; positive if the whole die meets timing).
func (r *Result) WNS() float64 {
	wns := math.Inf(1)
	for i := range r.ArrivalPS {
		if s := r.SlackPS(netlist.SignalID(i)); s < wns {
			wns = s
		}
	}
	return wns
}

// Violations returns the signals with negative slack, worst first capped at
// max entries (0 = all).
func (r *Result) Violations(max int) []netlist.SignalID {
	var v []netlist.SignalID
	for i := range r.ArrivalPS {
		if r.SlackPS(netlist.SignalID(i)) < 0 {
			v = append(v, netlist.SignalID(i))
		}
	}
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && r.SlackPS(v[j]) < r.SlackPS(v[j-1]); j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	if max > 0 && len(v) > max {
		v = v[:max]
	}
	return v
}

// CriticalPathPS returns the longest arrival time at any endpoint — the
// minimum feasible clock period before setup margin.
func (r *Result) CriticalPathPS() float64 {
	c := r.circ()
	worst := 0.0
	for oi, o := range c.outs {
		if at := r.ArrivalPS[o.Signal] + c.wireToOutPS(o.Signal, oi); at > worst {
			worst = at
		}
	}
	c.forEachFF(func(ff, d netlist.SignalID) {
		if at := r.ArrivalPS[d] + c.wirePS(d, ff); at > worst {
			worst = at
		}
	})
	return worst
}
