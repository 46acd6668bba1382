package fleet

import (
	"fmt"
	"slices"
	"strings"

	"marlin/internal/controlplane"
)

// A sweep explores the cartesian product of TestConfig axes — the paper's
// R2 use case ("find the optimal configuration by adjusting CC parameters")
// generalized to any spec dimension. Axes are declared as "key=v1,v2,..."
// strings (the marlinctl -axis flag); every combination becomes one Point,
// and each point becomes one (or, with replicates, several) fleet Job.

// Axis is one swept configuration dimension.
type Axis struct {
	Key    string
	Values []string
}

// ParseAxis parses "key=v1,v2,v3" and validates the key and every value by
// test-applying them to a scratch spec. Any key of controlplane.Spec's table
// is an axis, with the parsers scenarios and flags use. Values are split on
// commas, but a "k=v" piece with no "NAME:" before its "=" continues the
// value before it, so a discipline or pattern with parameters is one value:
// "aqm=pie:target=10us,tupdate=50us,codel" sweeps two. A value given twice
// would name two points alike.
func ParseAxis(s string) (Axis, error) {
	key, vals, ok := strings.Cut(s, "=")
	if !ok || key == "" || vals == "" {
		return Axis{}, fmt.Errorf("fleet: bad axis %q (want key=v1,v2,...)", s)
	}
	ax := Axis{Key: key}
	for _, piece := range strings.Split(vals, ",") {
		if k, _, kv := strings.Cut(piece, "="); kv && !strings.Contains(k, ":") && len(ax.Values) > 0 {
			ax.Values[len(ax.Values)-1] += "," + piece
			continue
		}
		ax.Values = append(ax.Values, piece)
	}
	var scratch controlplane.Spec
	for i, v := range ax.Values {
		if slices.Contains(ax.Values[:i], v) {
			return Axis{}, fmt.Errorf("fleet: axis %s: %q given twice", key, v)
		}
		if err := scratch.Set(key, v); err != nil {
			return Axis{}, fmt.Errorf("fleet: axis %s: %w", key, err)
		}
	}
	return ax, nil
}

// Point is one cartesian combination of axis values, in axis order.
type Point struct {
	Keys   []string
	Values []string
}

// ID is the point's stable identity ("ecn=8,algo=dctcp") — it keys the
// journal and seed derivation.
func (p Point) ID() string {
	parts := make([]string, len(p.Keys))
	for i, k := range p.Keys {
		parts[i] = k + "=" + p.Values[i]
	}
	return strings.Join(parts, ",")
}

// Apply sets the point's values on a spec.
func (p Point) Apply(s *controlplane.Spec) error {
	for i, k := range p.Keys {
		if err := s.Set(k, p.Values[i]); err != nil {
			return fmt.Errorf("fleet: axis %s: %w", k, err)
		}
	}
	return nil
}

// Cartesian expands the axes into every combination, first axis slowest —
// the order a human writing the nested loops by hand would produce.
func Cartesian(axes []Axis) []Point {
	points := []Point{{}}
	for _, ax := range axes {
		next := make([]Point, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				next = append(next, Point{
					Keys:   append(append([]string(nil), p.Keys...), ax.Key),
					Values: append(append([]string(nil), p.Values...), v),
				})
			}
		}
		points = next
	}
	if len(axes) == 0 {
		return nil
	}
	return points
}
