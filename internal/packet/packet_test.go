package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"marlin/internal/race"
	"marlin/internal/sim"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TEMP: "TEMP", DATA: "DATA", ACK: "ACK",
		INFO: "INFO", SCHE: "SCHE", CNP: "CNP", Type(99): "UNKNOWN",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestFlagsHas(t *testing.T) {
	f := FlagCE | FlagECNEcho
	if !f.Has(FlagCE) || !f.Has(FlagECNEcho) || !f.Has(FlagCE|FlagECNEcho) {
		t.Fatal("Has missed set bits")
	}
	if f.Has(FlagNACK) || f.Has(FlagCE|FlagNACK) {
		t.Fatal("Has matched unset bits")
	}
}

func TestNewDataDefaults(t *testing.T) {
	p := NewData(7, 42, 1024, sim.Time(99))
	if p.Type != DATA || p.Flow != 7 || p.PSN != 42 || p.Size != 1024 {
		t.Fatalf("NewData fields wrong: %+v", p)
	}
	if !p.Flags.Has(FlagECNCapable) {
		t.Fatal("DATA packets must be ECN-capable by default")
	}
}

func TestECTCodepoints(t *testing.T) {
	cases := []struct {
		ect  ECT
		bits Flags
		name string
	}{
		{NotECT, 0, "not-ect"},
		{ECT0, FlagECNCapable, "ect0"},
		{ECT1, FlagECNCapable | FlagECT1, "ect1"},
	}
	for _, tc := range cases {
		if got := tc.ect.Bits(); got != tc.bits {
			t.Errorf("%v.Bits() = %#x, want %#x", tc.ect, got, tc.bits)
		}
		if got := tc.ect.String(); got != tc.name {
			t.Errorf("ECT(%d).String() = %q, want %q", tc.ect, got, tc.name)
		}
		p := NewDataECT(1, 0, 1024, 0, tc.ect)
		if got := p.ECT(); got != tc.ect {
			t.Errorf("NewDataECT(%v).ECT() = %v", tc.ect, got)
		}
		p.Release()
	}
	// A bare FlagECT1 without FlagECNCapable is not a valid codepoint and
	// must decode as Not-ECT, so stray bits cannot smuggle ECN capability.
	p := &Packet{Flags: FlagECT1}
	if p.ECT() != NotECT {
		t.Error("FlagECT1 without FlagECNCapable decoded as ECN-capable")
	}
}

func TestSetECTPreservesOtherFlags(t *testing.T) {
	p := NewDataECT(1, 0, 1024, 0, ECT1)
	p.Flags |= FlagCE | FlagRetransmit
	p.SetECT(ECT0)
	if p.ECT() != ECT0 {
		t.Fatalf("SetECT(ECT0): codepoint = %v", p.ECT())
	}
	if !p.Flags.Has(FlagCE | FlagRetransmit) {
		t.Fatal("SetECT clobbered non-codepoint flags")
	}
	p.SetECT(NotECT)
	if p.Flags&ECTMask != 0 || !p.Flags.Has(FlagCE) {
		t.Fatalf("SetECT(NotECT): flags = %#x", p.Flags)
	}
	p.Release()
}

// TestECTSurvivesCloneAndPool is the satellite round-trip: ECT bits and the
// queue-local EnqAt stamp must ride through Clone, and a Release/Get cycle
// must hand back a packet with no stale codepoint.
func TestECTSurvivesCloneAndPool(t *testing.T) {
	p := NewDataECT(3, 7, 1024, sim.Time(55), ECT1)
	p.EnqAt = sim.Time(1234)
	q := p.Clone()
	if q.ECT() != ECT1 || q.EnqAt != sim.Time(1234) {
		t.Fatalf("Clone lost ECT/EnqAt: ect=%v enqAt=%d", q.ECT(), q.EnqAt)
	}
	p.Release()
	q.Release()
	fresh := Get()
	if fresh.ECT() != NotECT || fresh.EnqAt != 0 || fresh.Flags != 0 {
		t.Fatalf("pooled packet not zeroed: %+v", fresh)
	}
	fresh.Release()
}

// TestPoolRecyclesItsOwnPackets checks a Pool's contract: its packets and
// their clones come back to it zeroed, and once it holds a cycle's packets
// it allocates nothing more. A cold pool carves its packets from a slab,
// so it holds spares before anything is released.
func TestPoolRecyclesItsOwnPackets(t *testing.T) {
	q := new(Pool)
	p := q.NewDataECT(3, 7, 1024, sim.Time(55), ECT1)
	c := p.Clone()
	spare := len(q.free)
	p.Release()
	c.Release()
	if len(q.free) != spare+2 {
		t.Fatalf("pool holds %d packets after two Releases, want %d", len(q.free), spare+2)
	}
	for _, f := range q.free {
		if *f != (Packet{pool: q}) {
			t.Fatalf("free list holds %+v, want a zeroed packet of this pool", f)
		}
	}
	r := q.Get()
	if r != c || *r != (Packet{pool: q}) {
		t.Fatalf("Get returned %p %+v, want the last Released packet %p, zeroed", r, r, c)
	}
	r.Release()
	if race.Enabled {
		t.Skip("the race runtime allocates shadow state")
	}
	if n := testing.AllocsPerRun(100, func() {
		d := q.NewData(1, 2, 1024, 0)
		s := q.NewSche(1, 2, 0, 0)
		d.Clone().Release()
		d.Release()
		s.Release()
	}); n != 0 {
		t.Fatalf("a warm Pool allocated %v times a cycle, want 0", n)
	}
}

// A packet adopted by another pool goes back to that one, and Balance
// leaves every pool with at most high free packets and records of each
// kind it mints and none of a kind it never minted, filling the short ones
// from what the others had above that before the reserve keeps the rest.
// Neither moves what Outstanding counts over the pools involved.
func TestAdoptAndBalance(t *testing.T) {
	from, to := new(Pool), new(Pool)
	p := from.NewData(1, 2, 1024, 0)
	p.PushINT(INTHop{QueueBytes: 1})
	spare := len(from.free)
	to.Adopt(p)
	p.Release()
	if len(from.free) != spare || len(to.free) != 1 || len(to.ints) != 1 || to.free[0].pool != to {
		t.Fatalf("an adopted packet went back to its old pool: %d and %d free", len(from.free), len(to.free))
	}
	if n, m := Outstanding(from, to); n != 0 || m != 0 {
		t.Fatalf("Outstanding after an adopted packet's Release = (%d, %d), want (0, 0)", n, m)
	}

	rich, poor, idle, reserve := new(Pool), new(Pool), new(Pool), new(Pool)
	var held []*Packet
	for range 40 {
		held = append(held, rich.Get())
	}
	for _, q := range held {
		q.PushINT(INTHop{})
	}
	for _, q := range held {
		q.Release()
	}
	_ = poor.Get() // carves a slab of 8: seven spare; rich has 56, from slabs of 8, 16 and 32
	// idle, like a partition of transit switches, never mints: it gets
	// nothing. poor never took a record: it gets packets only.
	Balance([]*Pool{rich, poor, idle}, reserve, 10)
	if n, m := Outstanding(rich, poor, idle, reserve); n != 1 || m != 0 {
		t.Errorf("Outstanding after Balance = (%d, %d), want poor's one packet and no record", n, m)
	}
	for name, c := range map[string]struct {
		q          *Pool
		free, ints int
	}{"rich": {rich, 10, 10}, "poor": {poor, 10, 0}, "idle": {idle, 0, 0}, "reserve": {reserve, 43, 30}} {
		if len(c.q.free) != c.free || len(c.q.ints) != c.ints {
			t.Errorf("%s holds %d packets and %d records, want %d and %d", name, len(c.q.free), len(c.q.ints), c.free, c.ints)
		}
		for _, f := range c.q.free {
			if f.pool != c.q {
				t.Fatalf("%s holds a packet of another pool", name)
			}
		}
	}
}

// TestECTSurvivesAckTransform mirrors the switch's in-place DATA→ACK rewrite
// (truncate, clear signal flags, keep the codepoint): after masking with
// ECTMask the codepoint must decode unchanged while CE/ECE are gone.
func TestECTSurvivesAckTransform(t *testing.T) {
	for _, ect := range []ECT{NotECT, ECT0, ECT1} {
		d := NewDataECT(1, 9, 1024, 0, ect)
		d.Flags |= FlagCE
		d.Type = ACK
		d.Size = ControlSize
		d.Flags &= ECTMask
		d.Flags |= FlagECNEcho
		if d.ECT() != ect {
			t.Errorf("ACK transform changed codepoint %v -> %v", ect, d.ECT())
		}
		if d.Flags.Has(FlagCE) {
			t.Error("ACK transform kept the CE mark")
		}
		d.Release()
	}
}

func TestECTWireRoundTrip(t *testing.T) {
	for _, ect := range []ECT{NotECT, ECT0, ECT1} {
		in := &Packet{
			Type: ACK, Flow: 5, PSN: 10, Ack: 10,
			Flags: ect.Bits() | FlagECNEcho, Size: ControlSize,
		}
		var buf [ControlSize]byte
		if err := MarshalControl(in, buf[:]); err != nil {
			t.Fatal(err)
		}
		out, err := Unmarshal(buf[:])
		if err != nil {
			t.Fatal(err)
		}
		if out.ECT() != ect {
			t.Errorf("wire round trip changed codepoint %v -> %v", ect, out.ECT())
		}
		out.Release()
	}
}

func TestNewScheIs64Bytes(t *testing.T) {
	p := NewSche(3, 10, 5, 0)
	if p.Size != ControlSize {
		t.Fatalf("SCHE size = %d, want %d", p.Size, ControlSize)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := NewData(1, 2, 1024, 0)
	q := p.Clone()
	q.PSN = 99
	q.Flags |= FlagCE
	if p.PSN != 2 || p.Flags.Has(FlagCE) {
		t.Fatal("Clone aliases original")
	}
}

// A packet is 72 B: its telemetry stack lives out of line, so the packets
// a tester holds in flight, and the bytes each Release zeroes, do not pay
// for 168 B of INT that no hop stamped.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 80 {
		t.Errorf("Packet is %d B, want <= 80", got)
	}
}

// Clone deep-copies the telemetry stack: a hop stamped on the clone, or a
// rewrite of its first hop, leaves the original's stack as it was, and the
// two records go back to the pool separately.
func TestCloneCopiesINT(t *testing.T) {
	for _, q := range []*Pool{nil, new(Pool)} {
		p := q.NewData(1, 2, 1024, 0)
		p.PushINT(INTHop{QueueBytes: 64, TxBytes: 1 << 20, Rate: sim.Gbps, TS: 5})
		want := *p.INT
		c := p.Clone()
		if c.INT == p.INT || *c.INT != want {
			t.Fatalf("pool %p: clone INT %p %+v, want a copy of %p %+v", q, c.INT, c.INT, p.INT, want)
		}
		c.PushINT(INTHop{QueueBytes: 128})
		c.INT.Hops[0].QueueBytes = 1
		if *p.INT != want {
			t.Fatalf("pool %p: a write to the clone's stack changed the original: %+v", q, *p.INT)
		}
		c.Release()
		if p.INT.NHops != 1 || p.INT.Hops[0].QueueBytes != 64 {
			t.Fatalf("pool %p: releasing the clone changed the original: %+v", q, *p.INT)
		}
		p.Release()
	}
}

// A packet carries no telemetry record until a hop stamps it; Release and
// ClearINT return the record to the packet's pool zeroed, and a warm pool
// stamps, clones and releases without allocating.
func TestINTRecordsRecycleThroughThePool(t *testing.T) {
	q := new(Pool)
	p := q.NewData(1, 2, 1024, 0)
	if p.INT != nil {
		t.Fatal("a fresh packet carries a telemetry record")
	}
	p.PushINT(INTHop{QueueBytes: 64})
	r := p.INT
	p.Release()
	if len(q.ints) != 1 || q.ints[0] != r || *r != (INTRecord{}) {
		t.Fatalf("pool holds records %v after Release, want the packet's zeroed record %p", q.ints, r)
	}
	p = q.NewData(1, 3, 1024, 0)
	p.PushINT(INTHop{QueueBytes: 32})
	if p.INT != r {
		t.Fatalf("PushINT took %p, want the released record %p", p.INT, r)
	}
	p.ClearINT()
	if p.INT != nil || len(q.ints) != 1 || *r != (INTRecord{}) {
		t.Fatalf("ClearINT left INT %p and %d pooled records", p.INT, len(q.ints))
	}
	p.Release()
	if race.Enabled {
		t.Skip("the race runtime allocates shadow state")
	}
	if n := testing.AllocsPerRun(100, func() {
		d := q.NewData(1, 2, 1024, 0)
		d.PushINT(INTHop{QueueBytes: 64})
		d.Clone().Release()
		d.Release()
	}); n != 0 {
		t.Fatalf("a warm Pool allocated %v times a stamped cycle, want 0", n)
	}
}

func TestPayload(t *testing.T) {
	p := NewData(1, 0, 1024, 0)
	if got := p.Payload(); got != 1024-HeaderOverhead {
		t.Fatalf("Payload = %d, want %d", got, 1024-HeaderOverhead)
	}
	ack := &Packet{Type: ACK, Size: ControlSize}
	if ack.Payload() != 0 {
		t.Fatal("control packets must carry no payload")
	}
}

func TestMarshalControlRoundTrip(t *testing.T) {
	in := &Packet{
		Type: INFO, Flow: 0xDEADBEEF, PSN: 123456, Ack: 123455,
		Flags: FlagECNEcho | FlagCE, Port: 11,
		SentAt: sim.Time(987654321), RxTime: sim.Time(987659999),
		Size: ControlSize,
	}
	var buf [ControlSize]byte
	if err := MarshalControl(in, buf[:]); err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestMarshalControlRejectsData(t *testing.T) {
	var buf [ControlSize]byte
	err := MarshalControl(NewData(1, 0, 1024, 0), buf[:])
	if !errors.Is(err, ErrBadType) {
		t.Fatalf("err = %v, want ErrBadType", err)
	}
}

func TestMarshalControlShortBuffer(t *testing.T) {
	err := MarshalControl(NewSche(1, 0, 0, 0), make([]byte, 32))
	if !errors.Is(err, ErrShortPacket) {
		t.Fatalf("err = %v, want ErrShortPacket", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 8)); !errors.Is(err, ErrShortPacket) {
		t.Errorf("short buffer: err = %v", err)
	}
	bad := make([]byte, ControlSize)
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("zero magic: err = %v", err)
	}
	var buf [ControlSize]byte
	if err := MarshalControl(NewSche(1, 2, 3, 4), buf[:]); err != nil {
		t.Fatal(err)
	}
	buf[2] = 9 // bad version
	if _, err := Unmarshal(buf[:]); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v", err)
	}
	if err := MarshalControl(NewSche(1, 2, 3, 4), buf[:]); err != nil {
		t.Fatal(err)
	}
	buf[3] = 200 // bad type
	if _, err := Unmarshal(buf[:]); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: err = %v", err)
	}
}

func TestMarshalPadsToZero(t *testing.T) {
	buf := bytes.Repeat([]byte{0xFF}, ControlSize)
	if err := MarshalControl(NewSche(1, 2, 3, 4), buf); err != nil {
		t.Fatal(err)
	}
	for i := headerLen; i < ControlSize; i++ {
		if buf[i] != 0 {
			t.Fatalf("padding byte %d not zeroed", i)
		}
	}
}

func TestQuickWireRoundTrip(t *testing.T) {
	f := func(flow, psn, ack uint32, flags uint16, port uint16, sent, rx int64, kind uint8) bool {
		types := []Type{SCHE, INFO, ACK, CNP}
		in := &Packet{
			Type: types[int(kind)%len(types)],
			Flow: FlowID(flow), PSN: psn, Ack: ack,
			Flags: Flags(flags), Port: int(port),
			SentAt: sim.Time(uint64(sent)), RxTime: sim.Time(uint64(rx)),
			Size: ControlSize,
		}
		var buf [ControlSize]byte
		if err := MarshalControl(in, buf[:]); err != nil {
			return false
		}
		out, err := Unmarshal(buf[:])
		return err == nil && *out == *in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalUnmarshal(b *testing.B) {
	p := NewSche(42, 1000, 7, sim.Time(123456))
	var buf [ControlSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := MarshalControl(p, buf[:]); err != nil {
			b.Fatal(err)
		}
		if _, err := Unmarshal(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}
