package experiments

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// OverloadSweep drives the CP→DP pipeline past saturation and measures
// what the admission gate, the priority-aware shedder, and the brownout
// ladder buy: offered VM-creation load sweeps 1x–4x while a matching
// data-plane spike erases the lending slack, and each level reports
// per-class goodput, shed rate, and p99 attempts alongside the ladder's
// peak rung and whether it de-escalated once the spike receded. The
// design target is the paper's overload posture: latency-critical work
// keeps (nearly) its uncontended goodput at 4x because batch absorbs
// the shedding.
func OverloadSweep(scale Scale) *Result {
	res := newResult("Overload: offered-load sweep with admission gate and brownout ladder")
	tbl, vals := OverloadRun(scale, 1200)
	res.Tables = append(res.Tables, tbl)
	for _, k := range metrics.SortedKeys(vals) {
		res.Values[k] = vals[k]
	}
	res.Notes = append(res.Notes,
		"overload ladder: normal -> throttle -> shed -> brownout, one rung per pressure sample",
		"admission: deterministic token bucket + CoDel-style sojourn shedder, strict priority (batch sheds first)",
		"spike: background DP load scaled with the level, stopped mid-run so de-escalation is part of the measurement",
		"final=normal proves the hysteretic cooldown ladder walked back down after the spike",
		"sheds are terminal but cheap: no attempt consumed, no device inventory, client-side retry accounting")
	return res
}

// OverloadRun executes the overload sweep at the given seeds and worker
// count and returns the table plus the raw per-level values. Exported so
// the acceptance regression can replay it at chosen seeds and worker
// counts (byte-identical output for any worker count).
func OverloadRun(scale Scale, baseSeed int64) (*metrics.Table, map[string]float64) {
	tbl := metrics.NewTable("Overload sweep",
		"level", "peak", "final", "enters", "exits",
		"lc_done", "lc_shed", "n_done", "n_shed", "b_done", "b_shed", "dead", "p99_att")

	levels := []int{1, 2, 3, 4}
	type row struct {
		peak, final   string
		enters, exits uint64
		issued        [cluster.NumPriorities]int
		done          [cluster.NumPriorities]int
		dead          [cluster.NumPriorities]int
		shed          [cluster.NumPriorities]uint64
		p99Att        [cluster.NumPriorities]int
		settled       bool
		deadTotal     int
	}
	rows := make([]row, len(levels))

	// The spike window: arrivals and the DP load burst both live inside
	// it; the drain loop then runs as long as it takes for every request
	// to settle and the ladder to walk back down.
	spike := scale.dur(1200 * sim.Millisecond)

	fleet.ForEach(len(levels), scale.Workers, func(i int) {
		level := levels[i]
		// The DP spike scales with the offered level: at 1x the lending
		// slack holds (ladder stays normal); at 4x the offered DP
		// utilization exceeds capacity and the pressure index pins high
		// until the spike stops.
		bg := coarseBackground(0.30 * float64(level))

		vms := int(40 * float64(level) * scale.Factor)
		if vms < 10*level {
			vms = 10 * level
		}
		cfg := cluster.DefaultConfig(float64(level))
		cfg.VMs = vms
		cfg.VMLifetime = 0
		cfg.Retry = cluster.DefaultRetryPolicy()
		// Per-class retry budgets: batch gives up after one retry,
		// latency-critical perseveres.
		cfg.Retry.ClassMaxAttempts = [cluster.NumPriorities]int{2, 3, 5}
		cfg.Admission = cluster.DefaultAdmissionPolicy()
		cfg.Classify = cluster.DefaultClassify
		n := scenario.Must(scenario.New(scenario.Spec{
			Seed: baseSeed + int64(i), Mode: scenario.ModeTaiChi, Overload: true, Background: &bg, VMs: &cfg,
		}))
		tc, mgr := n.TC, n.Mgr
		tc.Engine().At(sim.Time(spike), n.BG.Stop)
		mgr.Start()

		// Drain: run in fixed chunks until every request is terminal, the
		// gate queues are empty, and the ladder is back to normal. The
		// bound is a runaway backstop, not a measurement horizon.
		n.RunUntil(250*sim.Millisecond, 160, func() bool {
			return int(mgr.Issued) >= vms && mgr.Settled() && tc.Sched.OverloadState() == core.OverloadNormal
		})

		os := tc.Sched.OverloadStats()
		r := row{
			peak:    os.Peak.String(),
			final:   os.State.String(),
			enters:  tc.Sched.OverloadEnters.Value(),
			exits:   tc.Sched.OverloadExits.Value(),
			shed:    mgr.ShedByClass(),
			settled: mgr.Settled(),
		}
		var attempts [cluster.NumPriorities][]int
		for _, req := range mgr.Requests() {
			c := req.Class
			r.issued[c]++
			switch req.State() {
			case cluster.ReqCompleted:
				r.done[c]++
				attempts[c] = append(attempts[c], req.Attempts)
			case cluster.ReqDeadLettered:
				r.dead[c]++
				r.deadTotal++
			}
		}
		for c := range attempts {
			r.p99Att[c] = p99Int(attempts[c])
		}
		rows[i] = r
	})

	vals := map[string]float64{}
	classes := []cluster.Priority{
		cluster.PriorityBatch, cluster.PriorityNormal, cluster.PriorityLatencyCritical,
	}
	short := map[cluster.Priority]string{
		cluster.PriorityBatch:           "batch",
		cluster.PriorityNormal:          "normal",
		cluster.PriorityLatencyCritical: "lc",
	}
	for i, level := range levels {
		r := rows[i]
		label := fmt.Sprintf("%dx", level)
		lc, n, b := cluster.PriorityLatencyCritical, cluster.PriorityNormal, cluster.PriorityBatch
		tbl.AddRow(label, r.peak, r.final, r.enters, r.exits,
			r.done[lc], r.shed[lc], r.done[n], r.shed[n], r.done[b], r.shed[b],
			r.deadTotal, r.p99Att[lc])
		vals[fmt.Sprintf("ovl_enters_%s", label)] = float64(r.enters)
		vals[fmt.Sprintf("ovl_exits_%s", label)] = float64(r.exits)
		vals[fmt.Sprintf("ovl_settled_%s", label)] = b2f(r.settled)
		vals[fmt.Sprintf("ovl_final_normal_%s", label)] = b2f(r.final == "normal")
		for _, c := range classes {
			vals[fmt.Sprintf("ovl_issued_%s_%s", short[c], label)] = float64(r.issued[c])
			vals[fmt.Sprintf("ovl_goodput_%s_%s", short[c], label)] = float64(r.done[c])
			vals[fmt.Sprintf("ovl_shed_%s_%s", short[c], label)] = float64(r.shed[c])
			vals[fmt.Sprintf("ovl_dead_%s_%s", short[c], label)] = float64(r.dead[c])
			vals[fmt.Sprintf("ovl_p99_attempts_%s_%s", short[c], label)] = float64(r.p99Att[c])
		}
	}
	return tbl, vals
}

// p99Int returns the 99th-percentile of a small integer sample (0 for an
// empty one), nearest-rank.
func p99Int(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	idx := (len(sorted)*99 + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
