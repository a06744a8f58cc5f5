// Package sta implements static timing analysis over a placed gate-level
// netlist — the reproduction's stand-in for PrimeTime. It computes, for
// every signal, the quantities the wrapper-cell flow consumes:
//
//   - capacitive load (gate pins + wire + TSV pads), which sets every gate's
//     delay and is the flip-flop load Li and Xiang's reuse baseline
//     (internal/wcm/li) checks. The merge test of Algorithm 2 does not
//     read it: it prices a clique from library constants alone;
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
	// Netlist is the analyzed netlist; nil for a result of
	// scan.FunctionalTimer.Time, which times a functional-mode view that
	// was never materialized as a Netlist.
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
// ports, the library's per-type parameters looked up once, the prices, and
// — when placed — coordinates indexed like the signals.
type circuit struct {
	g                 *netlist.Graph
	outs              []netlist.Output
	lib               *cells.Library
	par               [256]cells.Params // lib.Of for every GateType
	placed            bool
	coords, outCoords []place.Point
	tied              []bool // MUX selects tied low; nil when none are
	prices            *Prices
}

func newCircuit(g *netlist.Graph, outs []netlist.Output, lib *cells.Library, pl *place.Placement, tieLow []netlist.SignalID) *circuit {
	c := &circuit{g: g, outs: outs, lib: lib}
	for t := range c.par {
		c.par[t] = lib.Of(netlist.GateType(t))
	}
	if pl != nil {
		c.placed, c.coords, c.outCoords = true, pl.Coords, pl.OutCoords
	}
	if len(tieLow) > 0 {
		c.tied = make([]bool, g.NumGates())
		for _, s := range tieLow {
			if s >= 0 && int(s) < len(c.tied) {
				c.tied[s] = true
			}
		}
	}
	return c
}

// Prices are what the timing passes read besides the connectivity: the
// capacitive load each signal drives, the wire delay of each fanin edge
// and of each output port's run to its pad. Price computes them for a
// whole circuit. A caller that edits a priced circuit can copy them and
// Reprice only what the edit touched.
type Prices struct {
	// LoadFF[id] is the total capacitive load (fF) driven by signal id.
	LoadFF []float64
	// WirePS[e] is the wire delay (ps) from the driver of fanin edge e to
	// its reader, indexed like Graph.Fanin.
	WirePS []float64
	// OutWirePS[oi] is the wire delay (ps) from output port oi's signal to
	// its pad.
	OutWirePS []float64
}

// Price computes every price of a circuit given in flat form: its types
// and fanin CSR (no fanout or order is read), its output ports, and the
// placement supplying coordinates indexed like its signals and ports (nil
// prices no wire).
func Price(g *netlist.Graph, outs []netlist.Output, lib *cells.Library, pl *place.Placement) *Prices {
	p := &Prices{
		LoadFF:    make([]float64, g.NumGates()),
		WirePS:    make([]float64, len(g.Fanin)),
		OutWirePS: make([]float64, len(outs)),
	}
	c := newCircuit(g, outs, lib, pl, nil)
	c.priceWires(p, nil)
	c.addLoads(p.LoadFF, nil, nil)
	return p
}

// Reprice brings p up to date after an edit of the circuit it priced. p's
// arrays must already be indexed like the edited circuit, g, outs and pl.
// drivers marks the signals whose fanout or ports the edit changed;
// readers marks the gates whose fanin it changed or added, and every
// other gate that reads a marked driver. Reprice recomputes the wire
// delay of each marked reader's fanin edges, the load of each marked
// driver and every port's wire delay. Every other price must still hold;
// the result then equals Price of the edited circuit bit for bit.
func (p *Prices) Reprice(g *netlist.Graph, outs []netlist.Output, lib *cells.Library, pl *place.Placement, readers, drivers []bool) {
	c := newCircuit(g, outs, lib, pl, nil)
	c.priceWires(p, readers)
	for i, touched := range drivers {
		if touched {
			p.LoadFF[i] = 0
		}
	}
	c.addLoads(p.LoadFF, readers, drivers)
}

// priceWires prices the fanin edges of the marked readers (every gate's
// when readers is nil) and the output ports.
func (c *circuit) priceWires(p *Prices, readers []bool) {
	g := c.g
	for r := range g.Types {
		if readers != nil && !readers[r] {
			continue
		}
		for e := g.FaninOff[r]; e < g.FaninOff[r+1]; e++ {
			p.WirePS[e] = c.wirePS(g.Fanin[e], netlist.SignalID(r))
		}
	}
	for oi, o := range c.outs {
		p.OutWirePS[oi] = c.wireToOutPS(o.Signal, oi)
	}
}

// addLoads adds to load, for every driver marked in drivers (every signal
// when drivers is nil), the input capacitance of each fanout pin of a
// marked reader (every gate when readers is nil), the wire capacitance to
// each such sink (if placed), and the TSV pad capacitance (plus wire) for
// outbound-TSV ports. Readers are scattered in ascending SignalID order
// and pin order, then ports in port order, so each sum runs in the order
// of the signal's fanout list.
func (c *circuit) addLoads(load []float64, readers, drivers []bool) {
	g, lib := c.g, c.lib
	off, fanin := g.FaninOff, g.Fanin
	for r, t := range g.Types {
		if readers != nil && !readers[r] {
			continue
		}
		for _, f := range fanin[off[r]:off[r+1]] {
			if drivers != nil && !drivers[f] {
				continue
			}
			load[f] += c.par[t].InputCapFF
			if c.placed {
				load[f] += lib.WireCapFF(c.coords[f].ManhattanTo(c.coords[r]))
			}
		}
	}
	for oi, o := range c.outs {
		if drivers != nil && !drivers[o.Signal] {
			continue
		}
		extra := 0.0
		if o.Class == netlist.PortTSVOut {
			extra = lib.TSVCapFF
		}
		if c.placed {
			extra += lib.WireCapFF(c.coords[o.Signal].ManhattanTo(c.outCoords[oi]))
		}
		load[o.Signal] += extra
	}
}

// Analyze runs a full timing analysis.
func Analyze(n *netlist.Netlist, lib *cells.Library, cfg Config) (*Result, error) {
	if cfg.Placement != nil && cfg.Placement.Netlist != n {
		return nil, fmt.Errorf("sta: placement belongs to netlist %q, analyzing %q",
			cfg.Placement.Netlist.Name, n.Name)
	}
	g := n.Graph()
	if err := checkConfig(g, n.Outputs, cfg.withDefaults()); err != nil {
		return nil, err
	}
	r, err := AnalyzePriced(g, n.Outputs, lib, cfg, Price(g, n.Outputs, lib, cfg.Placement))
	if err != nil {
		return nil, err
	}
	r.Netlist = n
	return r, nil
}

func checkConfig(g *netlist.Graph, outs []netlist.Output, cfg Config) error {
	if cfg.ClockPS <= 0 {
		return fmt.Errorf("sta: clock period must be positive, got %v", cfg.ClockPS)
	}
	if pl := cfg.Placement; pl != nil && (len(pl.Coords) < g.NumGates() || len(pl.OutCoords) < len(outs)) {
		return fmt.Errorf("sta: placement covers %d signals and %d ports, circuit has %d and %d",
			len(pl.Coords), len(pl.OutCoords), g.NumGates(), len(outs))
	}
	return nil
}

// AnalyzePriced runs a full timing analysis of a circuit given in flat
// form, its connectivity and output ports, over prices the caller already
// holds (as Price computes them for cfg.Placement, whose Netlist field is
// not consulted). The Result's Netlist is nil. It reads the graph's types,
// fanin CSR and Order, which the caller may supply without the fanout CSR
// or levels: any topological order gives the same figures. The Result
// takes p.LoadFF as its LoadFF.
func AnalyzePriced(g *netlist.Graph, outs []netlist.Output, lib *cells.Library, cfg Config, p *Prices) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := checkConfig(g, outs, cfg); err != nil {
		return nil, err
	}
	nG := g.NumGates()
	c := newCircuit(g, outs, lib, cfg.Placement, cfg.TieLow)
	c.prices = p
	r := &Result{
		Lib:        lib,
		Config:     cfg,
		LoadFF:     p.LoadFF,
		DelayPS:    make([]float64, nG),
		ArrivalPS:  make([]float64, nG),
		RequiredPS: make([]float64, nG),
		c:          c,
	}
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
// (a projection onto a base netlist) gets one built and priced from its
// Netlist and Config on every call, so concurrent readers never write to
// it.
func (r *Result) circ() *circuit {
	if r.c != nil {
		return r.c
	}
	g, outs := r.Netlist.Graph(), r.Netlist.Outputs
	c := newCircuit(g, outs, r.Lib, r.Config.Placement, r.Config.TieLow)
	c.prices = Price(g, outs, r.Lib, r.Config.Placement)
	return c
}

// tiedMux reports whether a gate of type t whose fanin starts at edge lo
// is a MUX with its select tied low, timed through pin 1 only.
func (c *circuit) tiedMux(t netlist.GateType, lo int32) bool {
	return c.tied != nil && t == netlist.GateMux2 && c.tied[c.g.Fanin[lo]]
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

// forEachFF calls fn with every flip-flop and the wire delay into its D
// pin, from the signal on it.
func (c *circuit) forEachFF(fn func(d netlist.SignalID, wirePS float64)) {
	for i, t := range c.g.Types {
		if t == netlist.GateDFF {
			e := c.g.FaninOff[i]
			fn(c.g.Fanin[e], c.prices.WirePS[e])
		}
	}
}

// computeArrivals propagates arrival times in topological order. Sources
// launch at t=0 except flip-flops, which launch at their clk-to-Q delay.
func (r *Result) computeArrivals() {
	c := r.c
	types, off, fanin, wire := c.g.Types, c.g.FaninOff, c.g.Fanin, c.prices.WirePS
	arrival, delay := r.ArrivalPS, r.DelayPS
	for _, id := range c.g.Order {
		switch t := types[id]; {
		case t == netlist.GateDFF:
			arrival[id] = delay[id] // clk->Q
		case t.IsSource():
			arrival[id] = 0
		default:
			lo, hi := off[id], off[id+1]
			if c.tiedMux(t, lo) {
				lo, hi = lo+1, lo+2
			}
			worst := 0.0
			for e := lo; e < hi; e++ {
				if at := arrival[fanin[e]] + wire[e]; at > worst {
					worst = at
				}
			}
			arrival[id] = worst + delay[id]
		}
	}
}

// computeRequired propagates required times backward. Endpoints are
// flip-flop D pins and output ports, both required at clock - setup.
func (r *Result) computeRequired() {
	c := r.c
	types, off, fanin, wire := c.g.Types, c.g.FaninOff, c.g.Fanin, c.prices.WirePS
	required, delay := r.RequiredPS, r.DelayPS
	deadline := r.Config.ClockPS - r.Config.SetupPS
	for i := range required {
		required[i] = math.Inf(1)
	}
	for oi, o := range c.outs {
		req := deadline - c.prices.OutWirePS[oi]
		if req < required[o.Signal] {
			required[o.Signal] = req
		}
	}
	// Seed every capture endpoint BEFORE the backward sweep: flip-flops
	// sit early in the topological order (their Q is a source), so
	// handling their D pins during the reverse walk would set the
	// endpoint after its fan-in cone had already been processed, leaving
	// everything upstream optimistically untimed.
	c.forEachFF(func(d netlist.SignalID, wirePS float64) {
		req := deadline - wirePS
		if req < required[d] {
			required[d] = req
		}
	})
	order := c.g.Order
	for k := len(order) - 1; k >= 0; k-- {
		id := order[k]
		t := types[id]
		if t == netlist.GateDFF || t.IsSource() {
			continue // endpoints seeded above; sources have no fanin
		}
		lo, hi := off[id], off[id+1]
		if c.tiedMux(t, lo) {
			lo, hi = lo+1, lo+2
		}
		budget := required[id] - delay[id]
		for e := lo; e < hi; e++ {
			f := fanin[e]
			if req := budget - wire[e]; req < required[f] {
				required[f] = req
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
		if at := r.ArrivalPS[o.Signal] + c.prices.OutWirePS[oi]; at > worst {
			worst = at
		}
	}
	c.forEachFF(func(d netlist.SignalID, wirePS float64) {
		if at := r.ArrivalPS[d] + wirePS; at > worst {
			worst = at
		}
	})
	return worst
}
