package flowtab

import (
	"testing"

	"marlin/internal/packet"
)

// IDs on either side of a page edge land in the pages their ID says, each
// write is read back from its own slot, and the directory reaches exactly
// the largest page written.
func TestPageEdges(t *testing.T) {
	var tab Table[uint64]
	ids := []packet.FlowID{63, 64, 65, 4095, 4096}
	for _, id := range ids {
		*tab.Slot(id) = uint64(id) + 1000
	}
	for _, id := range ids {
		if v := tab.Get(id); v == nil || *v != uint64(id)+1000 {
			t.Errorf("Get(%d) = %v, want %d", id, v, uint64(id)+1000)
		}
	}
	// Pages 0, 1, 63 and 64; neighbours in a written page read zero.
	if got := tab.Pages(); got != 4 {
		t.Errorf("%d pages for IDs %v, want 4", got, ids)
	}
	if got := len(tab.dir); got != 65 {
		t.Errorf("directory of %d pages after writing page 64, want 65", got)
	}
	for _, id := range []packet.FlowID{0, 62, 66, 127, 4032, 4094, 4097, 4159} {
		if v := tab.Get(id); v == nil || *v != 0 {
			t.Errorf("Get(%d) in a written page = %v, want a zero value", id, v)
		}
	}
}

// A read never allocates: a page never written, a page past the directory
// and the far end of the ID space all read nil and leave the table as it
// was.
func TestGetOfUnwrittenPages(t *testing.T) {
	var tab Table[int16]
	if tab.Get(0) != nil || tab.Get(1<<31) != nil {
		t.Error("an empty table returned a slot")
	}
	*tab.Slot(200) = 7
	for _, id := range []packet.FlowID{0, 63, 128, 191, 256, 1 << 16, 1 << 31, 1<<32 - 1} {
		if v := tab.Get(id); v != nil {
			t.Errorf("Get(%d) = %v (%d), want nil", id, v, *v)
		}
	}
	if tab.Pages() != 1 || len(tab.dir) != 4 {
		t.Errorf("reads changed the table: %d pages, directory %d", tab.Pages(), len(tab.dir))
	}
	if a := testing.AllocsPerRun(100, func() { tab.Get(1 << 31) }); a != 0 {
		t.Errorf("Get allocates %v times", a)
	}
}

// Pages never move: a pointer taken before the directory grows still
// addresses the same slot after a write far beyond it, and what is written
// through it is what Get reads.
func TestPointersSurviveDirectoryGrowth(t *testing.T) {
	type timer struct{ flow packet.FlowID }
	var tab Table[timer]
	p := tab.Slot(5)
	p.flow = 5
	*tab.Slot(1 << 16) = timer{flow: 1 << 16}
	if cap(tab.dir) < 1<<10+1 {
		t.Fatalf("directory holds %d pages after binding flow 1<<16", cap(tab.dir))
	}
	if tab.Get(5) != p || tab.Slot(5) != p {
		t.Fatal("flow 5's slot moved when the directory grew")
	}
	p.flow = 55
	if tab.Get(5).flow != 55 || tab.Get(1<<16).flow != 1<<16 {
		t.Error("a write through the old pointer did not reach the table")
	}
	if tab.Pages() != 2 {
		t.Errorf("%d pages for two flows in two pages", tab.Pages())
	}
}

// Range visits every slot of every allocated page once, in flow order.
func TestRange(t *testing.T) {
	var tab Table[bool]
	for _, id := range []packet.FlowID{3, 700, 64} {
		*tab.Slot(id) = true
	}
	var seen []packet.FlowID
	n := 0
	last := packet.FlowID(0)
	tab.Range(func(id packet.FlowID, v *bool) {
		if n > 0 && id <= last {
			t.Fatalf("Range visited %d after %d", id, last)
		}
		if v != tab.Get(id) {
			t.Fatalf("Range passed flow %d a pointer that is not its slot", id)
		}
		if *v {
			seen = append(seen, id)
		}
		n, last = n+1, id
	})
	if n != 3*PageSize || len(seen) != 3 || seen[0] != 3 || seen[1] != 64 || seen[2] != 700 {
		t.Errorf("Range visited %d slots, set ones %v; want %d slots, [3 64 700]", n, seen, 3*PageSize)
	}
}
