package sim

import "testing"

// Engine microbenchmarks: each mix is implemented twice — once against the
// timer-wheel Engine and once against the reference heap RefEngine — so the
// before/after ratio demanded by the performance acceptance criteria is a
// single benchstat comparison away.

// steadyGap spreads chain periods over 5.1–82 ns so slots, the ready run,
// and slot re-use are all exercised, like concurrent per-port timers.
func steadyGap(i int) Duration { return Duration(5120 + (i%16)*5120) }

const steadyChains = 1024

// BenchmarkEngineSteadyState measures per-event cost with 1024 concurrent
// self-rescheduling event chains — the shape of per-port emit timers and
// per-flow pacing in the pipeline models.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	for i := 0; i < steadyChains; i++ {
		gap := steadyGap(i)
		var self Func
		self = func() { e.Schedule(gap, self) }
		e.Schedule(gap, self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkRefEngineSteadyState(b *testing.B) {
	e := NewRefEngine()
	for i := 0; i < steadyChains; i++ {
		gap := steadyGap(i)
		var self Func
		self = func() { e.Schedule(gap, self) }
		e.Schedule(gap, self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineTimerChurn measures the retransmission-timer pattern: every
// fired event cancels a pending far-future timer, re-arms it, and
// reschedules itself — the armTimer/Cancel churn of the FPGA NIC.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine()
	const chains = 256
	rto := make([]Handle, chains)
	noop := func() {}
	for i := 0; i < chains; i++ {
		gap := steadyGap(i)
		id := i
		var self Func
		self = func() {
			rto[id].Cancel()
			rto[id] = e.Schedule(500*Microsecond, noop)
			e.Schedule(gap, self)
		}
		e.Schedule(gap, self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkRefEngineTimerChurn(b *testing.B) {
	e := NewRefEngine()
	const chains = 256
	rto := make([]RefHandle, chains)
	noop := func() {}
	for i := 0; i < chains; i++ {
		gap := steadyGap(i)
		id := i
		var self Func
		self = func() {
			rto[id].Cancel()
			rto[id] = e.Schedule(500*Microsecond, noop)
			e.Schedule(gap, self)
		}
		e.Schedule(gap, self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineScheduleArg measures the closure-free scheduling path used
// by packet delivery (ScheduleArg carries the packet pointer, so the hot
// path allocates neither a closure nor an interface box).
func BenchmarkEngineScheduleArg(b *testing.B) {
	e := NewEngine()
	var sink *int
	deliver := ArgFunc(func(arg any) { sink = arg.(*int) })
	payload := new(int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(Duration(i%128), deliver, payload)
		if i%1024 == 1023 {
			e.RunAll()
		}
	}
	b.StopTimer()
	e.RunAll()
	_ = sink
}

// BenchmarkFreshEngine is what every short test pays for its event core: a
// new engine, 10,000 events over 250 us of simulated time, dropped.
func BenchmarkFreshEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runFreshEngine()
	}
}
