package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	wrtring "github.com/rtnet/wrtring"
)

// This file is the serializable sweep spec. A Grid names the axes of a
// parameter sweep (station counts, seeds, quotas, loss rates, protocols)
// crossed over one base scenario, in a compact JSON form a client can POST
// to the batch API (/v1/batches) instead of expanding the grid itself. The
// Over* combinators in sweep.go are thin wrappers over the same expansion
// (expandAxis), so a grid expanded server-side is provably the same point
// set, in the same order, as the local sweep a CLI would have built — the
// golden test in grid_test.go pins that order.
//
// Expansion order is deterministic by construction: axes apply in spec
// order, and each application iterates its values in the outer loop over
// the points built so far. Axes listed later therefore vary slowest —
// exactly how OverProtocol(OverN(base, ns)) has always ordered a grid —
// and every point's name is the "/"-join of its axis labels, outermost
// first.

// Axis is one named dimension of a Grid. Over selects the dimension; the
// matching value field must be set (and the others empty), except for
// "protocol", where an empty Protocols list means both protocols.
type Axis struct {
	// Over is the swept dimension: n | seed | quota | loss | protocol.
	Over string `json:"over"`
	// Ns are station counts (over=n).
	Ns []int `json:"ns,omitempty"`
	// Seeds replicate the scenario (over=seed).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Quotas are uniform [l, k] pairs (over=quota).
	Quotas [][2]int `json:"quotas,omitempty"`
	// Losses are mean loss rates (over=loss); BurstLen 0 is uniform loss,
	// otherwise a Gilbert–Elliott channel with that mean burst length.
	Losses   []float64 `json:"losses,omitempty"`
	BurstLen int64     `json:"burstLen,omitempty"`
	// Protocols are protocol names (over=protocol); empty means both.
	Protocols []string `json:"protocols,omitempty"`
}

// Axis kinds.
const (
	OverKindN        = "n"
	OverKindSeed     = "seed"
	OverKindQuota    = "quota"
	OverKindLoss     = "loss"
	OverKindProtocol = "protocol"
)

// AxisN sweeps the station count.
func AxisN(ns []int) Axis { return Axis{Over: OverKindN, Ns: ns} }

// AxisSeeds replicates across seeds.
func AxisSeeds(seeds []uint64) Axis { return Axis{Over: OverKindSeed, Seeds: seeds} }

// AxisQuota sweeps the uniform (l, k) quota pair.
func AxisQuota(lks [][2]int) Axis { return Axis{Over: OverKindQuota, Quotas: lks} }

// AxisLoss sweeps the fault-injection loss rate.
func AxisLoss(means []float64, burstLen int64) Axis {
	return Axis{Over: OverKindLoss, Losses: means, BurstLen: burstLen}
}

// AxisProtocols duplicates every point per protocol; empty names mean both.
func AxisProtocols(names ...string) Axis { return Axis{Over: OverKindProtocol, Protocols: names} }

// size returns the number of values the axis contributes.
func (a Axis) size() int {
	switch a.Over {
	case OverKindN:
		return len(a.Ns)
	case OverKindSeed:
		return len(a.Seeds)
	case OverKindQuota:
		return len(a.Quotas)
	case OverKindLoss:
		return len(a.Losses)
	case OverKindProtocol:
		if len(a.Protocols) == 0 {
			return 2
		}
		return len(a.Protocols)
	default:
		return 0
	}
}

// Validate checks the axis structurally: a known kind, a non-empty value
// set of the matching type, and no values for a foreign kind (a grid that
// says over=n but carries seeds is a spec bug worth failing loudly).
func (a Axis) Validate() error {
	var want string
	switch a.Over {
	case OverKindN:
		want = "ns"
	case OverKindSeed:
		want = "seeds"
	case OverKindQuota:
		want = "quotas"
	case OverKindLoss:
		want = "losses"
	case OverKindProtocol:
		want = "protocols"
		for _, p := range a.Protocols {
			if _, err := parseProtocol(p); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("sweep: unknown axis kind %q", a.Over)
	}
	fields := []struct {
		name string
		n    int
	}{
		{"ns", len(a.Ns)},
		{"seeds", len(a.Seeds)},
		{"quotas", len(a.Quotas)},
		{"losses", len(a.Losses)},
		{"protocols", len(a.Protocols)},
	}
	for _, f := range fields {
		if f.name != want && f.n > 0 {
			return fmt.Errorf("sweep: axis over=%q must not set %q", a.Over, f.name)
		}
		if f.name == want && f.n == 0 && a.Over != OverKindProtocol {
			return fmt.Errorf("sweep: axis over=%q has no %s", a.Over, want)
		}
	}
	if a.BurstLen != 0 && a.Over != OverKindLoss {
		return fmt.Errorf("sweep: axis over=%q must not set burstLen", a.Over)
	}
	if a.Over == OverKindN {
		for _, n := range a.Ns {
			if n < 3 {
				return fmt.Errorf("sweep: axis over=n has station count %d (need >= 3)", n)
			}
		}
	}
	return nil
}

func parseProtocol(name string) (wrtring.Protocol, error) {
	switch name {
	case "wrt-ring", "wrt", "":
		return wrtring.WRTRing, nil
	case "tpt":
		return wrtring.TPT, nil
	default:
		return 0, fmt.Errorf("sweep: unknown protocol %q", name)
	}
}

// Grid is the serializable sweep spec: axes crossed over a base scenario.
type Grid struct {
	Base wrtring.Scenario `json:"base"`
	Axes []Axis           `json:"axes"`
}

// Validate checks every axis, requires at least one, and refuses a grid
// whose point count does not fit in an int64.
func (g Grid) Validate() error {
	if len(g.Axes) == 0 {
		return fmt.Errorf("sweep: grid has no axes")
	}
	total := int64(1)
	for i, a := range g.Axes {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("sweep: axis %d: %w", i, err)
		}
		n := int64(a.size())
		if total > math.MaxInt64/n {
			return fmt.Errorf("sweep: grid expands past %d points", int64(math.MaxInt64))
		}
		total *= n
	}
	return nil
}

// Size returns the number of points the grid expands to (the product of the
// axis sizes) without expanding it.
func (g Grid) Size() int64 {
	if len(g.Axes) == 0 {
		return 0
	}
	total := int64(1)
	for _, a := range g.Axes {
		total *= int64(a.size())
	}
	return total
}

// Points validates and expands the grid. The order is the deterministic
// contract shared with the Over* combinators: axes apply in spec order and
// later axes vary slowest, so Grid{Base, [AxisN(ns), AxisProtocols()]}
// expands exactly like OverProtocol(OverN(base, ns)).
func (g Grid) Points() ([]Point, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	pts := []Point{{Scenario: g.Base}}
	for _, ax := range g.Axes {
		pts = expandAxis(pts, ax)
	}
	return pts, nil
}

// PointAt expands only the i-th point of the grid (0 <= i < Size()), in the
// same order Points returns them. The batch server uses it to walk
// million-point grids without materialising every scenario up front.
func (g Grid) PointAt(i int64) (Point, error) {
	total := g.Size()
	if i < 0 || i >= total {
		return Point{}, fmt.Errorf("sweep: point index %d out of range [0, %d)", i, total)
	}
	// Later axes vary slowest, so the index decomposes little-endian in axis
	// order: axis 0 cycles fastest.
	p := Point{Scenario: g.Base}
	for _, ax := range g.Axes {
		n := int64(ax.size())
		p = ax.apply(p, int(i%n))
		i /= n
	}
	return p, nil
}

// expandAxis crosses the points built so far with one axis: values in the
// outer loop, so the new axis varies slowest, with the value's label
// prefixed onto each name. This is the one expansion implementation behind
// both the Over* combinators and Grid.Points/PointAt.
func expandAxis(pts []Point, ax Axis) []Point {
	n := ax.size()
	out := make([]Point, 0, n*len(pts))
	for v := 0; v < n; v++ {
		for _, p := range pts {
			out = append(out, ax.apply(p, v))
		}
	}
	return out
}

// apply derives one point from p by setting the axis's v-th value, and
// prefixes the value's label onto the point name.
func (ax Axis) apply(p Point, v int) Point {
	s := p.Scenario
	var label string
	switch ax.Over {
	case OverKindN:
		s.N = ax.Ns[v]
		label = fmt.Sprintf("N=%d", ax.Ns[v])
	case OverKindSeed:
		s.Seed = ax.Seeds[v]
		label = fmt.Sprintf("seed=%d", ax.Seeds[v])
	case OverKindQuota:
		s.L, s.K = ax.Quotas[v][0], ax.Quotas[v][1]
		label = fmt.Sprintf("l=%d,k=%d", ax.Quotas[v][0], ax.Quotas[v][1])
	case OverKindLoss:
		shape := "uniform"
		if ax.BurstLen > 0 {
			shape = fmt.Sprintf("burst=%d", ax.BurstLen)
		}
		var f wrtring.FaultSpec
		if p.Scenario.Fault != nil {
			f = *p.Scenario.Fault
		}
		f.Loss = &wrtring.LossSpec{Mean: ax.Losses[v], BurstLen: ax.BurstLen}
		s.Fault = &f
		label = fmt.Sprintf("loss=%.2f%%/%s", ax.Losses[v]*100, shape)
	case OverKindProtocol:
		proto := ax.protocolAt(v)
		s.Protocol = proto
		label = proto.String()
	}
	name := label
	if p.Name != "" {
		name = label + "/" + p.Name
	}
	return Point{Name: name, Scenario: s}
}

// protocolAt resolves the v-th protocol of the axis (both when unset).
// Validate has already rejected unknown names, so parse errors cannot
// happen on a validated grid; the combinators only build valid axes.
func (ax Axis) protocolAt(v int) wrtring.Protocol {
	if len(ax.Protocols) == 0 {
		return []wrtring.Protocol{wrtring.WRTRing, wrtring.TPT}[v]
	}
	proto, _ := parseProtocol(ax.Protocols[v])
	return proto
}

// ParseGrid decodes a grid spec from JSON, rejecting unknown fields (like
// ParseScenario) and validating the axes, so a typo'd spec fails at decode
// instead of silently sweeping the wrong dimension.
func ParseGrid(data []byte) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// EncodeGrid renders a grid spec as JSON.
func EncodeGrid(g Grid) ([]byte, error) {
	return json.Marshal(g)
}
