package faults

import (
	"fmt"

	"marlin/internal/measure"
	"marlin/internal/sim"
)

// Recovery detection. A Monitor samples goodput every monitorInterval; a
// fault's recovery baseline is the mean goodput over the lookback window
// before it began, and goodput has recovered once sustainSamples
// consecutive samples reach recoverFraction of that baseline (the ">= 90%"
// rule), so a single post-outage burst does not count. The ECN mark rate
// is measured over the lookback-long window after each fault clears.
const (
	monitorInterval = 50 * sim.Microsecond
	lookback        = 10 * monitorInterval
	recoverFraction = 0.9
	sustainSamples  = 3
)

// Recovery is one fault's telemetry: how hard the fault hit and how long
// the transport took to climb back.
type Recovery struct {
	Entry Entry
	// PreGbps is the mean goodput over the lookback window before the
	// fault began — the recovery baseline.
	PreGbps float64
	// Recovered reports whether goodput made a sustained return to 90%
	// of PreGbps after the fault cleared.
	Recovered bool
	// TimeToRecover is measured from the fault's END to the first sample
	// of the sustained recovery run (zero if never recovered or if there
	// was no pre-fault traffic to recover to).
	TimeToRecover sim.Duration
	// RtxDuring counts retransmissions emitted inside the fault window.
	RtxDuring uint64
	// PostMarkPerSec is the ECN marking rate over the lookback-long
	// window after the fault cleared.
	PostMarkPerSec float64
}

// String renders one recovery row.
func (r Recovery) String() string {
	ttr := "never"
	if r.Recovered {
		ttr = r.TimeToRecover.String()
	}
	return fmt.Sprintf("%-9s %-16s pre=%.2fGbps ttr=%s rtx=%d post_marks=%.0f/s",
		r.Entry.Kind, r.Entry.Link, r.PreGbps, ttr, r.RtxDuring, r.PostMarkPerSec)
}

// Monitor watches goodput, retransmissions, and ECN marks around each
// fault in a plan and reports per-fault recovery telemetry. Built on
// measure.RateSampler for the goodput series; the retransmit and mark
// counters are snapshotted exactly at fault edges by scheduled probes, so
// the report is as deterministic as the run.
type Monitor struct {
	eng     *sim.Engine
	plan    Plan
	sampler *measure.RateSampler
	probes  []probe
}

type probe struct {
	rtxStart, rtxEnd    uint64
	marksEnd, marksPost uint64
}

// NewMonitor arms a monitor: goodput/rtx/marks are cumulative counters
// (bytes, packets, marks). Sampling and the per-fault probes start
// immediately; run the engine, then call Report.
func NewMonitor(eng *sim.Engine, plan Plan, goodput func() uint64, rtx, marks func() uint64) *Monitor {
	m := &Monitor{
		eng:     eng,
		plan:    plan,
		sampler: measure.NewRateSampler(eng, monitorInterval),
		probes:  make([]probe, len(plan.Entries)),
	}
	m.sampler.Track("goodput", goodput)
	m.sampler.Start()
	for i, e := range plan.Entries {
		i, e := i, e
		eng.ScheduleAt(e.At, func() { m.probes[i].rtxStart = rtx() })
		eng.ScheduleAt(e.End(), func() {
			m.probes[i].rtxEnd = rtx()
			m.probes[i].marksEnd = marks()
		})
		eng.ScheduleAt(e.End().Add(lookback), func() {
			m.probes[i].marksPost = marks()
		})
	}
	return m
}

// Goodput returns the sampled goodput series (Gbps).
func (m *Monitor) Goodput() measure.Series { return m.sampler.Series("goodput") }

// Report computes per-fault recovery telemetry from the run's samples, in
// plan order.
func (m *Monitor) Report() []Recovery {
	series := m.Goodput()
	out := make([]Recovery, len(m.plan.Entries))
	for i, e := range m.plan.Entries {
		r := Recovery{Entry: e}
		r.PreGbps = meanWindow(series, e.At.Add(-lookback), e.At)
		r.RtxDuring = m.probes[i].rtxEnd - m.probes[i].rtxStart
		r.PostMarkPerSec = float64(m.probes[i].marksPost-m.probes[i].marksEnd) /
			lookback.Seconds()
		if r.PreGbps > 0 {
			r.Recovered, r.TimeToRecover = m.findRecovery(series, e.End(), r.PreGbps)
		}
		out[i] = r
	}
	return out
}

// meanWindow averages samples with At in [from, to).
func meanWindow(s measure.Series, from, to sim.Time) float64 {
	var sum float64
	n := 0
	for _, p := range s.After(from) {
		if p.At >= to {
			break
		}
		sum += p.V
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// findRecovery scans samples after the fault end for the first run of
// sustainSamples consecutive samples at or above the threshold; the TTR is
// from the fault end to the run's first sample.
func (m *Monitor) findRecovery(s measure.Series, end sim.Time, pre float64) (bool, sim.Duration) {
	threshold := recoverFraction * pre
	post := s.After(end)
	run := 0
	for i, p := range post {
		if p.V >= threshold {
			run++
			if run >= sustainSamples {
				first := post[i-run+1].At
				return true, first.Sub(end)
			}
		} else {
			run = 0
		}
	}
	return false, 0
}
