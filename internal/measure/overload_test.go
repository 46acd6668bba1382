package measure

import (
	"math"
	"testing"

	"marlin/internal/sim"
)

func TestOverloadMonitorValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewOverloadMonitor(eng, OverloadProbe{}, OverloadConfig{ThresholdBytes: 1}); err == nil {
		t.Error("nil QueueBytes probe accepted")
	}
	probe := OverloadProbe{QueueBytes: func() int { return 0 }}
	if _, err := NewOverloadMonitor(eng, probe, OverloadConfig{ThresholdBytes: 0}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewOverloadMonitor(eng, probe, OverloadConfig{ThresholdBytes: -5}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestOverloadMonitorWindows(t *testing.T) {
	eng := sim.NewEngine()
	// Backlog follows a square wave: 900KB (over) for the first 100us of
	// every 200us period, 0 (under) for the second half.
	depth := func() int {
		if sim.Duration(eng.Now())%(200*sim.Microsecond) < 100*sim.Microsecond {
			return 900 << 10
		}
		return 0
	}
	var delivered, dropped uint64
	m, err := NewOverloadMonitor(eng, OverloadProbe{
		QueueBytes: depth,
		PeakBytes:  func() int { return 1 << 20 },
		Delivered:  func() uint64 { return delivered },
		Dropped:    func() uint64 { return dropped },
	}, OverloadConfig{ThresholdBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	delivered, dropped = 300, 100
	eng.Run(sim.Time(sim.Duration(995) * sim.Microsecond))
	m.Stop()
	r := m.Report()
	// Five periods, each over for 100us. The first tick fires at 10us, so
	// the first period catches 9 over-samples and the rest 10 each.
	if r.TimeInOverload != 490*sim.Microsecond {
		t.Fatalf("time in overload = %v, want 490us", r.TimeInOverload)
	}
	if len(r.Windows) != 5 {
		t.Fatalf("windows = %d, want 5: %v", len(r.Windows), r.Windows)
	}
	if r.PeakQueueBytes != 1<<20 {
		t.Fatalf("peak = %d, want exact register value %d", r.PeakQueueBytes, 1<<20)
	}
	if want := float64(1<<20) / float64(512<<10); r.PeakOvershoot != want {
		t.Fatalf("overshoot = %v, want %v", r.PeakOvershoot, want)
	}
	if r.Delivered != 300 || r.Dropped != 100 {
		t.Fatalf("delivered=%d dropped=%d", r.Delivered, r.Dropped)
	}
	if r.BurstAbsorption != 0.75 {
		t.Fatalf("absorption = %v, want 0.75", r.BurstAbsorption)
	}
	if r.Samples != 99 {
		t.Fatalf("samples = %d, want 99", r.Samples)
	}
}

func TestOverloadMonitorOpenWindowClosedByStop(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewOverloadMonitor(eng, OverloadProbe{
		QueueBytes: func() int { return 100 },
	}, OverloadConfig{ThresholdBytes: 50})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	eng.Run(sim.Time(sim.Duration(95) * sim.Microsecond))
	m.Stop()
	r := m.Report()
	if len(r.Windows) != 1 {
		t.Fatalf("windows = %v", r.Windows)
	}
	if r.Windows[0].End != sim.Time(sim.Duration(95)*sim.Microsecond) {
		t.Fatalf("open window closed at %v, want stop time", sim.Duration(r.Windows[0].End))
	}
	if r.BurstAbsorption != 1 {
		t.Fatalf("absorption with no probes = %v, want 1", r.BurstAbsorption)
	}
}

func TestFCTInflation(t *testing.T) {
	us := func(n int64) sim.Duration { return sim.Duration(n) * sim.Microsecond }
	at := func(n int64) sim.Time { return sim.Time(us(n)) }
	windows := []Window{{Start: at(100), End: at(200)}}
	records := []FCTRecord{
		{Start: at(0), FCT: us(50)},    // clear: ends at 50
		{Start: at(300), FCT: us(50)},  // clear
		{Start: at(150), FCT: us(200)}, // hit: inside the window
		{Start: at(90), FCT: us(20)},   // hit: straddles the window start
	}
	got := FCTInflation(records, windows)
	want := ((200.0 + 20.0) / 2) / ((50.0 + 50.0) / 2)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("inflation = %v, want %v", got, want)
	}
	if !math.IsNaN(FCTInflation(records[:2], windows)) {
		t.Error("all-clear population should be NaN")
	}
	if !math.IsNaN(FCTInflation(nil, windows)) {
		t.Error("empty records should be NaN")
	}
}
