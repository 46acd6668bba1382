package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineRunsInTimestampOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleAt(30, func() { order = append(order, 3) })
	e.ScheduleAt(10, func() { order = append(order, 1) })
	e.ScheduleAt(20, func() { order = append(order, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleAt(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestEngineScheduleInsideEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.ScheduleAt(10, func() {
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
		e.Schedule(0, func() { fired = append(fired, e.Now()) })
	})
	e.RunAll()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(100, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleAt(50, func() {})
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.ScheduleAt(10, func() { ran++ })
	e.ScheduleAt(20, func() { ran++ })
	e.ScheduleAt(30, func() { ran++ })
	n := e.Run(20)
	if n != 2 || ran != 2 {
		t.Fatalf("ran %d events before horizon, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want horizon 20", e.Now())
	}
	e.RunAll()
	if ran != 3 {
		t.Fatalf("remaining event did not run")
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	h := e.ScheduleAt(10, func() { ran = true })
	if !h.Cancel() {
		t.Fatal("first Cancel returned false")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.RunAll()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.ScheduleAt(10, func() { ran++; e.Stop() })
	e.ScheduleAt(20, func() { ran++ })
	e.RunAll()
	if ran != 1 {
		t.Fatalf("Stop did not halt the run: ran = %d", ran)
	}
	e.RunAll()
	if ran != 2 {
		t.Fatalf("run did not resume after Stop: ran = %d", ran)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.ScheduleAt(10, func() { ran++ })
	e.ScheduleAt(20, func() { ran++ })
	if !e.Step() || ran != 1 || e.Now() != 10 {
		t.Fatalf("first Step: ran=%d now=%v", ran, e.Now())
	}
	if !e.Step() || ran != 2 {
		t.Fatalf("second Step: ran=%d", ran)
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestTickerFiresAtPeriod(t *testing.T) {
	e := NewEngine()
	var at []Time
	tk := NewTicker(e, 10, func() { at = append(at, e.Now()) })
	tk.Start()
	e.Run(35)
	if len(at) != 3 || at[0] != 10 || at[1] != 20 || at[2] != 30 {
		t.Fatalf("ticks at %v, want [10 20 30]", at)
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = NewTicker(e, 10, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	tk.Start()
	e.RunAll()
	if n != 2 {
		t.Fatalf("ticker fired %d times after Stop at 2", n)
	}
	if tk.Active() {
		t.Fatal("ticker still active after Stop")
	}
}

func TestTickerRestart(t *testing.T) {
	e := NewEngine()
	n := 0
	tk := NewTicker(e, 10, func() { n++ })
	tk.Start()
	e.Run(25)
	tk.Stop()
	tk.Start()
	e.Run(100)
	if n < 9 {
		t.Fatalf("restarted ticker fired only %d times", n)
	}
}

// TestTickerTickAllocatesNothing pins the ticker's re-arm to its prebuilt
// body: a running ticker fires period after period without allocating.
func TestTickerTickAllocatesNothing(t *testing.T) {
	e := NewEngine()
	n := 0
	tk := NewTicker(e, Microsecond, func() { n++ })
	tk.Start()
	e.Run(Time(10 * Millisecond)) // warm the event free list
	before := n
	if a := testing.AllocsPerRun(1000, func() { e.Run(e.Now().Add(Microsecond)) }); a != 0 {
		t.Errorf("a running ticker allocates %v times a tick, want 0", a)
	}
	if n-before != 1001 {
		t.Errorf("ticker fired %d times over 1001 periods", n-before)
	}
}

func TestRateSerialize(t *testing.T) {
	// 1024 bytes at 100 Gbps must serialize in exactly 81,920 ps.
	if d := (100 * Gbps).Serialize(1024); d != 81920 {
		t.Fatalf("Serialize(1024B @100G) = %d ps, want 81920", d)
	}
	// 64-byte control packets at 100 Gbps: 5120 ps.
	if d := (100 * Gbps).Serialize(64); d != 5120 {
		t.Fatalf("Serialize(64B @100G) = %d ps, want 5120", d)
	}
}

func TestRatePacketsPerSecond(t *testing.T) {
	// §3.3: at MTU 1024, one 100 Gbps port sends ~11.97 Mpps (the paper
	// counts the full frame including preamble/IFG loosely; the raw
	// payload math gives 12.2 Mpps — we check our primitive exactly).
	got := (100 * Gbps).PacketsPerSecond(1024)
	want := 100e9 / (1024 * 8)
	if got != want {
		t.Fatalf("PacketsPerSecond = %v, want %v", got, want)
	}
}

func TestIntervalRoundTrip(t *testing.T) {
	iv := Interval(8.127e6)
	pps := float64(Second) / float64(iv)
	if pps < 8.0e6 || pps > 8.3e6 {
		t.Fatalf("Interval(8.127Mpps) round-trips to %v pps", pps)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(1000))
	}
	mean := sum / n
	if mean < 950 || mean > 1050 {
		t.Fatalf("Exp mean = %v, want ~1000", mean)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestQuickTimeAddSub(t *testing.T) {
	f := func(base int32, d int32) bool {
		tm := Time(base)
		dd := Duration(d)
		return tm.Add(dd).Sub(tm) == dd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSerializeMonotonic(t *testing.T) {
	// Serialization time must be nondecreasing in size and nonincreasing
	// in rate.
	f := func(sz uint16, extra uint8) bool {
		size := int(sz)%9000 + 1
		r := 10 * Gbps
		faster := 100 * Gbps
		d1 := r.Serialize(size)
		d2 := r.Serialize(size + int(extra))
		d3 := faster.Serialize(size)
		return d2 >= d1 && d3 <= d1 && d1 > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{5 * Nanosecond, "5ns"},
		{81920, "81.9ns"},
		{3 * Microsecond, "3us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestRateString(t *testing.T) {
	if s := (100 * Gbps).String(); s != "100Gbps" {
		t.Errorf("100Gbps formats as %q", s)
	}
	if s := (1200 * Gbps).String(); s != "1.2Tbps" {
		t.Errorf("1.2Tbps formats as %q", s)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%128), func() {})
		if i%1024 == 1023 {
			e.RunAll()
		}
	}
	e.RunAll()
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

// An event record carries one Handler and its argument where it once held a
// Func and an ArgFunc side by side; either way it is 88 B.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 88 {
		t.Errorf("event is %d B, want 88", got)
	}
}

// A func value, a method value and a pointer handler all schedule through
// the one Handler slot, each firing with its own argument.
func TestHandlerKinds(t *testing.T) {
	e := NewEngine()
	var got []any
	e.Schedule(1, func() { got = append(got, "func") })
	e.ScheduleArg(2, func(arg any) { got = append(got, arg) }, "arg")
	h := &recorder{got: &got}
	e.ScheduleFireAt(3, h, "fire")
	e.RunAll()
	if want := []any{"func", "arg", "fire"}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if a := testing.AllocsPerRun(100, func() {
		e.ScheduleFireAt(e.Now()+1, h, nil)
		e.RunAll()
	}); a != 0 {
		t.Errorf("scheduling a pointer handler made %v allocations, want 0", a)
	}
}

// recorder is a pointer handler appending each argument it fires with.
type recorder struct{ got *[]any }

func (r *recorder) Fire(arg any) {
	if arg != nil {
		*r.got = append(*r.got, arg)
	}
}
