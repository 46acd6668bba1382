package measure

import (
	"fmt"
	"math"

	"marlin/internal/sim"
)

// OverloadProbe is the set of counters an OverloadMonitor polls. Like
// RateSampler's sources, probes are closures so the monitor stays
// decoupled from the device model: the control plane wires them to the
// victim port's queue and link registers.
type OverloadProbe struct {
	// QueueBytes reads the instantaneous backlog of the monitored queue.
	QueueBytes func() int
	// PeakBytes reads the queue's exact lifetime maximum backlog, if the
	// device tracks one; nil falls back to the sampled peak.
	PeakBytes func() int
	// Delivered reads the cumulative packets the monitored link
	// transmitted.
	Delivered func() uint64
	// Dropped reads the cumulative packets the monitored queue discarded.
	Dropped func() uint64
}

// overloadInterval is an OverloadMonitor's sampling period: the cadence at
// which a control plane would poll occupancy registers.
const overloadInterval = 10 * sim.Microsecond

// OverloadConfig tunes an OverloadMonitor.
type OverloadConfig struct {
	// ThresholdBytes is the backlog at or above which the port counts as
	// overloaded. Must be positive; callers typically use half the queue
	// capacity.
	ThresholdBytes int
}

// Window is one contiguous overload episode: the backlog sat at or above
// the threshold from Start until End.
type Window struct {
	Start, End sim.Time
}

// Overlaps reports whether [from, to] intersects the window.
func (w Window) Overlaps(from, to sim.Time) bool {
	return from <= w.End && to >= w.Start
}

// OverloadMonitor samples a victim port's backlog on a fixed cadence and
// distils the burst-response metrics patterns are judged by: how long the
// port spent past the congestion threshold, how far the queue overshot it,
// and what fraction of offered packets the port absorbed rather than
// dropped.
type OverloadMonitor struct {
	eng    *sim.Engine
	probe  OverloadProbe
	cfg    OverloadConfig
	ticker *sim.Ticker

	baseDelivered uint64
	baseDropped   uint64
	samples       int
	sampledPeak   int
	timeIn        sim.Duration
	windows       []Window
	open          bool
	openStart     sim.Time
	started       bool
}

// NewOverloadMonitor validates the probe and config and returns an idle
// monitor; call Start before running the simulation.
func NewOverloadMonitor(eng *sim.Engine, probe OverloadProbe, cfg OverloadConfig) (*OverloadMonitor, error) {
	if probe.QueueBytes == nil {
		return nil, fmt.Errorf("measure: overload monitor needs a QueueBytes probe")
	}
	if cfg.ThresholdBytes <= 0 {
		return nil, fmt.Errorf("measure: overload threshold must be positive, got %d", cfg.ThresholdBytes)
	}
	m := &OverloadMonitor{eng: eng, probe: probe, cfg: cfg}
	m.ticker = sim.NewTicker(eng, overloadInterval, m.sample)
	return m, nil
}

// Start latches the delivery counters and begins sampling.
func (m *OverloadMonitor) Start() {
	if m.started {
		return
	}
	m.started = true
	if m.probe.Delivered != nil {
		m.baseDelivered = m.probe.Delivered()
	}
	if m.probe.Dropped != nil {
		m.baseDropped = m.probe.Dropped()
	}
	m.ticker.Start()
}

// Stop halts sampling and closes any open overload window.
func (m *OverloadMonitor) Stop() {
	m.ticker.Stop()
	if m.open {
		m.windows = append(m.windows, Window{Start: m.openStart, End: m.eng.Now()})
		m.open = false
	}
}

func (m *OverloadMonitor) sample() {
	b := m.probe.QueueBytes()
	m.samples++
	if b > m.sampledPeak {
		m.sampledPeak = b
	}
	over := b >= m.cfg.ThresholdBytes
	if over {
		m.timeIn += overloadInterval
		if !m.open {
			m.open = true
			// The episode began somewhere in the last interval; charge it
			// from this sample, matching the timeIn accounting.
			m.openStart = m.eng.Now()
		}
		return
	}
	if m.open {
		m.windows = append(m.windows, Window{Start: m.openStart, End: m.eng.Now()})
		m.open = false
	}
}

// OverloadReport is the distilled burst response of the monitored port.
type OverloadReport struct {
	// ThresholdBytes is the configured overload threshold.
	ThresholdBytes int
	// PeakQueueBytes is the maximum observed backlog.
	PeakQueueBytes int
	// PeakOvershoot is PeakQueueBytes/ThresholdBytes: how far past the
	// congestion knee the burst pushed the queue.
	PeakOvershoot float64
	// TimeInOverload is total time the backlog sat at or above the
	// threshold.
	TimeInOverload sim.Duration
	// Windows are the contiguous overload episodes.
	Windows []Window
	// Delivered and Dropped count the monitored port's packets since
	// Start.
	Delivered uint64
	Dropped   uint64
	// BurstAbsorption is Delivered/(Delivered+Dropped): the fraction of
	// offered packets the port carried through the burst. 1 when nothing
	// was offered.
	BurstAbsorption float64
	// Samples is how many backlog readings contributed.
	Samples int
}

// Report snapshots the metrics accumulated so far. A still-open overload
// window is reported as ending now.
func (m *OverloadMonitor) Report() OverloadReport {
	r := OverloadReport{
		ThresholdBytes: m.cfg.ThresholdBytes,
		PeakQueueBytes: m.sampledPeak,
		TimeInOverload: m.timeIn,
		Windows:        append([]Window(nil), m.windows...),
		Samples:        m.samples,
	}
	if m.probe.PeakBytes != nil {
		if p := m.probe.PeakBytes(); p > r.PeakQueueBytes {
			r.PeakQueueBytes = p
		}
	}
	if m.open {
		r.Windows = append(r.Windows, Window{Start: m.openStart, End: m.eng.Now()})
	}
	r.PeakOvershoot = float64(r.PeakQueueBytes) / float64(r.ThresholdBytes)
	if m.probe.Delivered != nil {
		r.Delivered = m.probe.Delivered() - m.baseDelivered
	}
	if m.probe.Dropped != nil {
		r.Dropped = m.probe.Dropped() - m.baseDropped
	}
	if total := r.Delivered + r.Dropped; total > 0 {
		r.BurstAbsorption = float64(r.Delivered) / float64(total)
	} else {
		r.BurstAbsorption = 1
	}
	return r
}

// FCTInflation measures the collateral damage a burst pattern inflicts on
// the flows caught in it: the mean completion time of records whose
// lifetime overlapped an overload window, divided by the mean of those
// that ran entirely in the clear. Returns NaN when either population is
// empty. Callers filter to background (non-pattern) flows first.
func FCTInflation(records []FCTRecord, windows []Window) float64 {
	var hitSum, clearSum float64
	var hit, clear int
	for _, rec := range records {
		end := rec.Start.Add(rec.FCT)
		overlapped := false
		for _, w := range windows {
			if w.Overlaps(rec.Start, end) {
				overlapped = true
				break
			}
		}
		if overlapped {
			hitSum += rec.FCT.Microseconds()
			hit++
		} else {
			clearSum += rec.FCT.Microseconds()
			clear++
		}
	}
	if hit == 0 || clear == 0 {
		return math.NaN()
	}
	return (hitSum / float64(hit)) / (clearSum / float64(clear))
}
