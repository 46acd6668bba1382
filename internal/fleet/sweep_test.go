package fleet

import (
	"reflect"
	"strings"
	"testing"

	"marlin/internal/controlplane"
	"marlin/internal/sim"
)

func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("ecn=8,65,200")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Key != "ecn" || !reflect.DeepEqual(ax.Values, []string{"8", "65", "200"}) {
		t.Errorf("ParseAxis = %+v", ax)
	}
	for _, bad := range []string{"", "ecn", "ecn=", "=8", "nope=1", "ecn=8,abc", "pfc=maybe", "linkdelay=fast",
		"queue=-1", "ecn=-3", "hops=-1", "ports=-1", "linkdelay=-2us", "aqm=tsunami", "ecn=8,65,8"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
	// Every configuration key is an axis, with both boolean spellings.
	for _, good := range []string{"aqm=pi2,red", "topology=leafspine:2x2,fattree:4", "shards=1,2", "pfc=on,false"} {
		if _, err := ParseAxis(good); err != nil {
			t.Errorf("ParseAxis(%q): %v", good, err)
		}
	}
}

// A "k=v" piece with no "NAME:" before it continues the value before it,
// so discipline and pattern parameters stay with their value; a piece that
// names its value, or holds no "=", starts the next one.
func TestParseAxisJoinsParameters(t *testing.T) {
	cases := []struct {
		spec string
		want []string
	}{
		{"aqm=pie:target=10us,tupdate=50us,codel:target=10us,interval=500us,pi2",
			[]string{"pie:target=10us,tupdate=50us", "codel:target=10us,interval=500us", "pi2"}},
		{"aqm=dualpi2:target=25us,tupdate=100us,pi2", []string{"dualpi2:target=25us,tupdate=100us", "pi2"}},
		{"aqm=ecn:k=8,ecn:k=65", []string{"ecn:k=8", "ecn:k=65"}},
		{"pattern=flood:peak=80G,victim=4,ect=not,flood:peak=80G,victim=4,ect=ect1",
			[]string{"flood:peak=80G,victim=4,ect=not", "flood:peak=80G,victim=4,ect=ect1"}},
		{"faults=linkdown fwd0 at 1ms for 100us,nicstall at 1ms for 50us",
			[]string{"linkdown fwd0 at 1ms for 100us", "nicstall at 1ms for 50us"}},
		{"topology=leafspine:2x2,fattree:4", []string{"leafspine:2x2", "fattree:4"}},
	}
	for _, c := range cases {
		ax, err := ParseAxis(c.spec)
		if err != nil {
			t.Errorf("ParseAxis(%q): %v", c.spec, err)
		} else if !reflect.DeepEqual(ax.Values, c.want) {
			t.Errorf("ParseAxis(%q) = %q, want %q", c.spec, ax.Values, c.want)
		}
	}
	// Duplicates are found among the joined values, not the pieces: the
	// two values below share "tupdate=50us" and still differ.
	if _, err := ParseAxis("aqm=pie:target=10us,tupdate=50us,pie:target=20us,tupdate=50us"); err != nil {
		t.Errorf("two pie values sharing a parameter: %v", err)
	}
	if _, err := ParseAxis("aqm=pie:target=10us,tupdate=50us,pi2,pie:target=10us,tupdate=50us"); err == nil ||
		!strings.Contains(err.Error(), `"pie:target=10us,tupdate=50us" given twice`) {
		t.Errorf("a joined value given twice: %v", err)
	}
	// A parameter with no value before it is a value of its own, and fails.
	if _, err := ParseAxis("aqm=target=10us,pi2"); err == nil {
		t.Error("aqm=target=10us,pi2 accepted")
	}
}

func TestPointApply(t *testing.T) {
	pt := Point{Keys: []string{"algo", "ecn", "pfc", "linkdelay"}, Values: []string{"dcqcn", "20", "true", "2us"}}
	var spec controlplane.Spec
	if err := pt.Apply(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.Algorithm != "dcqcn" || spec.AQM != "ecn:k=20" || !spec.EnablePFC {
		t.Errorf("Apply left spec %+v", spec)
	}
	if spec.LinkDelay != 2*sim.Microsecond {
		t.Errorf("linkdelay = %v, want 2us", spec.LinkDelay)
	}
	if pt.ID() != "algo=dcqcn,ecn=20,pfc=true,linkdelay=2us" {
		t.Errorf("ID = %q", pt.ID())
	}
}

func TestCartesian(t *testing.T) {
	axes := []Axis{
		{Key: "algo", Values: []string{"dctcp", "dcqcn"}},
		{Key: "ecn", Values: []string{"8", "65", "200"}},
	}
	pts := Cartesian(axes)
	if len(pts) != 6 {
		t.Fatalf("cartesian size = %d, want 6", len(pts))
	}
	// First axis slowest: the order nested loops would produce.
	if pts[0].ID() != "algo=dctcp,ecn=8" || pts[3].ID() != "algo=dcqcn,ecn=8" {
		t.Errorf("order: %q ... %q", pts[0].ID(), pts[3].ID())
	}
	ids := map[string]bool{}
	for _, p := range pts {
		ids[p.ID()] = true
	}
	if len(ids) != 6 {
		t.Error("duplicate point IDs")
	}
	if got := Cartesian(nil); got != nil {
		t.Errorf("Cartesian(nil) = %v, want nil", got)
	}
}
