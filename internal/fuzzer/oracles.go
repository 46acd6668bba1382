package fuzzer

import (
	"fmt"
	"slices"

	"marlin/internal/aqm"
	"marlin/internal/packet"
	"marlin/internal/scenario"
	"marlin/internal/sim"
)

// Violation is one invariant failure found by an oracle.
type Violation struct {
	Oracle string
	Detail string
}

func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Oracle, v.Detail) }

// Oracle names, in the order CheckAll evaluates them.
const (
	OracleConservation = "conservation"
	OracleSanity       = "sanity"
	OracleLiveness     = "liveness"
	OracleCCState      = "ccstate"
	OraclePoolLeak     = "poolleak"
	OracleDeterminism  = "determinism"
	OracleShardEquiv   = "shardequiv"
	OracleRefEngine    = "refengine"
	OracleScale        = "scale"
	OraclePermute      = "permute"
)

// quietEligible reports whether the config's traffic is fully scripted
// and finite: no fault plan, no open-loop pattern. Only then can an
// oracle demand that every flow completes and every queue drains.
func (c *Config) quietEligible() bool {
	return c.Spec.Faults == "" && c.Spec.Pattern == "" && len(c.flows()) > 0
}

// scaleEligible reports whether the time-dilation metamorphic relation is
// exact for this config. Integer window algorithms (reno, dctcp) under
// drop-tail or step ECN scale exactly; rate-based algorithms carry
// absolute timers (alpha/rate timers, pacing intervals) and AQM
// disciplines carry unscaled controller constants, so neither preserves
// the trajectory under dilation. Scripted drops are excluded too: their
// activation instants scale with k but tester-internal latencies do not,
// so whether a given PSN traverses the link before or after its drop
// script activates can resolve differently in the dilated run (first
// seen as a 7-vs-4 injected-drop mismatch in a 100-config campaign).
func (c *Config) scaleEligible() bool {
	drops := slices.ContainsFunc(c.Actions, func(a scenario.Action) bool { return a.Kind == "drop" })
	marking, _ := aqm.ParseSpec(c.Spec.AQM)
	return c.quietEligible() && (c.Spec.Algorithm == "reno" || c.Spec.Algorithm == "dctcp") &&
		(marking.Kind == aqm.KindNone || marking.Kind == aqm.KindECN) && !drops
}

// permuteEligible reports whether relabeling flow IDs is an exact
// symmetry: canonical single-switch network (fabric ECMP hashes the flow
// ID into path choice) and no two flows sharing a tx or rx port (shared-
// port arbitration could tie-break on ID).
func (c *Config) permuteEligible() bool {
	flows := c.flows()
	if !c.quietEligible() || c.Spec.Topology != "" || len(flows) < 2 {
		return false
	}
	tx, rx := map[int]bool{}, map[int]bool{}
	for _, f := range flows {
		if tx[f.Tx] || rx[f.Rx] {
			return false
		}
		tx[f.Tx], rx[f.Rx] = true, true
	}
	return true
}

// CheckAll runs the config once plus every applicable twin run and
// returns all violations found. It is a pure function of cfg.
func CheckAll(cfg Config) ([]Violation, error) {
	base, err := execute(cfg)
	if err != nil {
		return nil, err
	}
	var out []Violation
	add := func(v *Violation) {
		if v != nil {
			out = append(out, *v)
		}
	}
	add(checkConservation(cfg, base))
	add(checkSanity(cfg, base))
	add(checkLiveness(cfg, base))
	add(checkCCState(cfg.Spec.Algorithm, cfg.Spec.Seed))
	add(checkPoolLeak(cfg, base))

	rerun, err := execute(cfg)
	if err != nil {
		return nil, err
	}
	if rerun.digest() != base.digest() {
		out = append(out, Violation{OracleDeterminism, "rerun with identical config produced a different digest"})
	}

	if cfg.Spec.Topology != "" {
		if v, err := checkShardEquiv(cfg); err != nil {
			return out, err
		} else {
			add(v)
		}
	}
	if cfg.Spec.Seed%4 == 0 {
		add(checkRefEngine(cfg.Spec.Seed))
	}
	if cfg.scaleEligible() {
		if v, err := checkScale(cfg, base); err != nil {
			return out, err
		} else {
			add(v)
		}
	}
	if cfg.permuteEligible() {
		if v, err := checkPermute(cfg, base); err != nil {
			return out, err
		} else {
			add(v)
		}
	}
	return out, nil
}

// CheckOne reruns a single named oracle — the minimizer's inner loop and
// the regress replay gate.
func CheckOne(cfg Config, oracle string) (*Violation, error) {
	if oracle == OracleCCState {
		return checkCCState(cfg.Spec.Algorithm, cfg.Spec.Seed), nil
	}
	if oracle == OracleRefEngine {
		return checkRefEngine(cfg.Spec.Seed), nil
	}
	if oracle == OracleShardEquiv {
		if cfg.Spec.Topology == "" {
			return nil, nil
		}
		return checkShardEquiv(cfg)
	}
	base, err := execute(cfg)
	if err != nil {
		return nil, err
	}
	switch oracle {
	case OracleConservation:
		return checkConservation(cfg, base), nil
	case OracleSanity:
		return checkSanity(cfg, base), nil
	case OracleLiveness:
		return checkLiveness(cfg, base), nil
	case OraclePoolLeak:
		return checkPoolLeak(cfg, base), nil
	case OracleDeterminism:
		rerun, err := execute(cfg)
		if err != nil {
			return nil, err
		}
		if rerun.digest() != base.digest() {
			return &Violation{OracleDeterminism, "rerun with identical config produced a different digest"}, nil
		}
		return nil, nil
	case OracleScale:
		if !cfg.scaleEligible() {
			return nil, nil
		}
		return checkScale(cfg, base)
	case OraclePermute:
		if !cfg.permuteEligible() {
			return nil, nil
		}
		return checkPermute(cfg, base)
	}
	return nil, fmt.Errorf("fuzzer: unknown oracle %q", oracle)
}

// checkConservation verifies every egress queue's packet ledger: admitted
// packets either left or are still queued (enq == deq + len), and nothing
// was dequeued that was never admitted. On quiet configs it additionally
// demands full drainage — a packet still sitting in a queue millisecond
// after the last flow completed is a stuck packet, not backlog.
func checkConservation(cfg Config, r *runResult) *Violation {
	for _, q := range r.Queues {
		if q.Enq != q.Deq+uint64(q.Len) {
			return &Violation{OracleConservation,
				fmt.Sprintf("queue %s: enq %d != deq %d + len %d", q.Name, q.Enq, q.Deq, q.Len)}
		}
		if q.Deq > q.Enq {
			return &Violation{OracleConservation,
				fmt.Sprintf("queue %s: dequeued %d > enqueued %d", q.Name, q.Deq, q.Enq)}
		}
	}
	if cfg.quietEligible() && len(r.FCTs) == len(cfg.flows()) {
		for _, q := range r.Queues {
			if q.Len != 0 {
				return &Violation{OracleConservation,
					fmt.Sprintf("queue %s: %d packets stranded after all flows completed", q.Name, q.Len)}
			}
		}
	}
	return nil
}

// checkSanity enforces the §4.2 correctness floor and basic physics: no
// tester-internal false losses, no misroutes, a scheduler whose FIFOs keep
// §5.2's one event a flow, no port delivering beyond its line rate, no
// marking more packets than were forwarded.
func checkSanity(cfg Config, r *runResult) *Violation {
	if r.Losses.FalseLosses != 0 {
		return &Violation{OracleSanity, fmt.Sprintf("%d false losses (tester-internal drops)", r.Losses.FalseLosses)}
	}
	if r.Losses.Misroutes != 0 {
		return &Violation{OracleSanity, fmt.Sprintf("%d misroutes", r.Losses.Misroutes)}
	}
	if r.Sched != nil {
		return &Violation{OracleSanity, r.Sched.Error()}
	}
	lineBits := uint64(float64(100*sim.Gbps) * cfg.Horizon().Seconds())
	for id, bits := range r.Goodput {
		if bits > lineBits {
			return &Violation{OracleSanity,
				fmt.Sprintf("flow %d goodput %d bits exceeds line-rate bound %d", id, bits, lineBits)}
		}
	}
	for _, sw := range r.Snap.Network {
		for i, ps := range sw.Ports {
			if ps.ECNMarks > ps.TxPackets+uint64(ps.QueuePkts) {
				return &Violation{OracleSanity,
					fmt.Sprintf("switch %s port %d: %d ECN marks > %d forwarded+queued", sw.Name, i, ps.ECNMarks, ps.TxPackets+uint64(ps.QueuePkts))}
			}
		}
	}
	return nil
}

// checkLiveness demands that on a quiet config — finite scripted flows,
// generous horizon, no faults or patterns — every flow completes. A CC
// stack that needs an RTO per lost packet instead of recovering in one
// round trip fails here.
func checkLiveness(cfg Config, r *runResult) *Violation {
	if !cfg.quietEligible() {
		return nil
	}
	done := map[packet.FlowID]bool{}
	for _, rec := range r.FCTs {
		done[rec.Flow] = true
	}
	for _, f := range cfg.flows() {
		if !done[f.Flow] {
			return &Violation{OracleLiveness,
				fmt.Sprintf("flow %d (size %d, started %s) did not complete within %s", f.Flow, f.Size, f.At, cfg.Horizon())}
		}
	}
	if r.Snap.NIC.InfoDrops != 0 {
		return &Violation{OracleLiveness, fmt.Sprintf("%d INFO drops on a quiet config", r.Snap.NIC.InfoDrops)}
	}
	return nil
}

// checkShardEquiv runs the config at Shards=1 and Shards=3 and compares
// digests. Shards>=1 must be byte-identical for every worker count (the
// conservative parallel build's core guarantee); Shards=0 assembles one
// island instead of K — fewer device cables and NIC slices — and may
// legitimately differ, so it is not part of this oracle.
func checkShardEquiv(cfg Config) (*Violation, error) {
	one, many := cfg, cfg
	one.Spec.Shards, many.Spec.Shards = 1, 3
	r1, err := execute(one)
	if err != nil {
		return nil, err
	}
	r3, err := execute(many)
	if err != nil {
		return nil, err
	}
	if r1.digest() != r3.digest() {
		return &Violation{OracleShardEquiv, "Shards=1 and Shards=3 digests differ"}, nil
	}
	return nil, nil
}

// checkScale runs the time-dilated twin (all network rates / k, all
// delays and timeline times * k, k=2) and compares the dimensionless
// outputs: completions, drops, marks, and delivered bits must be
// identical. FCTs are not dimensionless — the tester-internal data path
// (FPGA-side links, pipeline cycle costs) is part of the measured system
// and does not dilate — but each one must land in [base, k*base]: the
// network component stretches by exactly k and the tester component not
// at all, so leaving that bracket means time entered the computation some
// third way. Timeout-driven runs are skipped: the RTO floor and the
// microsecond-granular srtt do not dilate, so the twin legitimately
// diverges once a timer fires.
func checkScale(cfg Config, base *runResult) (*Violation, error) {
	const k = 2
	scaled, err := execute(cfg.dilated(k))
	if err != nil {
		return nil, err
	}
	if base.Snap.NIC.Timeouts > 0 || scaled.Snap.NIC.Timeouts > 0 {
		return nil, nil
	}
	if len(scaled.FCTs) != len(base.FCTs) {
		return &Violation{OracleScale,
			fmt.Sprintf("completions changed under x%d dilation: %d vs %d", k, len(base.FCTs), len(scaled.FCTs))}, nil
	}
	if b, s := base.Losses.NetworkDrops, scaled.Losses.NetworkDrops; b != s {
		return &Violation{OracleScale, fmt.Sprintf("network drops changed under dilation: %d vs %d", b, s)}, nil
	}
	if b, s := base.Losses.InjectedDrops, scaled.Losses.InjectedDrops; b != s {
		return &Violation{OracleScale, fmt.Sprintf("injected drops changed under dilation: %d vs %d", b, s)}, nil
	}
	for id, bits := range base.Goodput {
		if scaled.Goodput[id] != bits {
			return &Violation{OracleScale,
				fmt.Sprintf("flow %d delivered bits changed under dilation: %d vs %d", id, bits, scaled.Goodput[id])}, nil
		}
	}
	var bm, sm uint64
	for _, sw := range base.Snap.Network {
		for _, ps := range sw.Ports {
			bm += ps.ECNMarks
		}
	}
	for _, sw := range scaled.Snap.Network {
		for _, ps := range sw.Ports {
			sm += ps.ECNMarks
		}
	}
	if bm != sm {
		return &Violation{OracleScale, fmt.Sprintf("ECN marks changed under dilation: %d vs %d", bm, sm)}, nil
	}
	for i := range base.FCTs {
		bf, sf := base.FCTs[i], scaled.FCTs[i]
		if sf.Flow != bf.Flow || sf.FCT < bf.FCT || sf.FCT > k*bf.FCT {
			return &Violation{OracleScale,
				fmt.Sprintf("FCT %d outside the x%d dilation bracket: flow %d %s vs flow %d %s (allowed [%s, %s])",
					i, k, bf.Flow, bf.FCT, sf.Flow, sf.FCT, bf.FCT, k*bf.FCT)}, nil
		}
	}
	return nil, nil
}

// checkPermute relabels flow IDs through a nontrivial permutation and
// checks that per-flow outputs follow the relabeling exactly: flow
// identity must be a pure name, never an implicit priority.
func checkPermute(cfg Config, base *runResult) (*Violation, error) {
	// Rotate the sorted ID set by one: a derangement for n >= 2.
	flows := cfg.flows()
	to := map[packet.FlowID]packet.FlowID{}
	for i, f := range flows {
		to[f.Flow] = flows[(i+1)%len(flows)].Flow
	}
	twin, err := execute(cfg.relabeled(to))
	if err != nil {
		return nil, err
	}
	for _, f := range flows {
		if twin.Goodput[to[f.Flow]] != base.Goodput[f.Flow] {
			return &Violation{OraclePermute,
				fmt.Sprintf("flow %d (relabeled %d) goodput %d != base %d", f.Flow, to[f.Flow], twin.Goodput[to[f.Flow]], base.Goodput[f.Flow])}, nil
		}
	}
	baseFCT := map[packet.FlowID]sim.Duration{}
	for _, rec := range base.FCTs {
		baseFCT[rec.Flow] = rec.FCT
	}
	twinFCT := map[packet.FlowID]sim.Duration{}
	for _, rec := range twin.FCTs {
		twinFCT[rec.Flow] = rec.FCT
	}
	for _, f := range flows {
		b, okB := baseFCT[f.Flow]
		tw, okT := twinFCT[to[f.Flow]]
		if okB != okT || b != tw {
			return &Violation{OraclePermute,
				fmt.Sprintf("flow %d (relabeled %d) FCT %v/%v != base %v/%v", f.Flow, to[f.Flow], tw, okT, b, okB)}, nil
		}
	}
	return nil, nil
}

// checkPoolLeak audits the run's own packet pools: once a quiet config's
// flows have all completed, every packet and telemetry record its tester
// minted is back in the tester's pools at the horizon, which the generator
// places at least 5 ms past the last flow start. A packet still out is a
// leak even when nothing else notices it.
func checkPoolLeak(cfg Config, r *runResult) *Violation {
	if !cfg.quietEligible() || len(r.FCTs) != len(cfg.flows()) {
		return nil // a flow that did not complete is the liveness oracle's
	}
	if r.Outstanding != 0 || r.OutstandingINT != 0 {
		return &Violation{OraclePoolLeak, fmt.Sprintf("%d packets and %d telemetry records still out at the horizon",
			r.Outstanding, r.OutstandingINT)}
	}
	return nil
}
