// Command taichi-sim runs one co-scheduling scenario and prints the
// resulting data-plane and control-plane statistics — a workbench for
// exploring the framework outside the fixed paper experiments.
//
// Usage:
//
//	taichi-sim -mode taichi -cp 16 -util 0.3 -dur 5s
//	taichi-sim -mode static -workload crr -dur 2s
//	taichi-sim -mode naive -workload ping
//	taichi-sim -nodes 16 -parallel 8      # fleet of independent nodes
//	taichi-sim -faults default            # chaos run, DefaultSpec faults
//	taichi-sim -faults probe-miss=0.3,ipi-drop=0.1,offline-mtbf=20ms
//	taichi-sim -workload vmstartup -retry -cp 4 -faults default
//	taichi-sim -faults default -recover           # self-healing ladder armed
//	taichi-sim -faults default -recover -audit    # + invariant audit after the run
//	taichi-sim -nodes 8 -place pressure           # signal-driven cluster placer
//	taichi-sim -nodes 8 -place rr -rebalance=false
//	taichi-sim -nodes 8 -place pressure -recover -audit \
//	           -faults exit-stall=0.2,cp-crash=0.05,nack=0.2,coord-timeout=0.1
//
// Modes: taichi, static, type1, type2, naive.
// Workloads: none, ping, crr, stream, rr, fio, mysql, nginx, vmstartup.
//
// With -nodes N > 1, N independently-seeded copies of the scenario run
// on a bounded worker pool (internal/fleet) and the merged fleet-wide
// statistics are printed. Same seed + any -parallel value gives the same
// output.
//
// The vmstartup workload drives the cluster VM-creation pipeline;
// -retry arms per-request deadlines, exponential-backoff retries and
// dead-lettering.
//
// -recover arms the self-healing layer: the scheduler's de-escalation
// ladder (static → sw-probe → normal under the default
// core.RecoveryPolicy) and, with -retry -workload vmstartup, the bounded
// dead-letter requeue (cluster.DefaultRequeuePolicy, health-gated on the
// node's defense mode and breaker).
//
// -overload arms the overload-control layer: the scheduler's brownout
// ladder (normal → throttle → shed → brownout under the default
// core.OverloadPolicy) and, with -workload vmstartup, the deterministic
// admission gate with priority-aware load shedding
// (cluster.DefaultAdmissionPolicy + DefaultClassify).
//
// -place <policy> switches the fleet under the cluster placer
// (internal/placement): instead of each node running its own arrival
// process, VM startups arrive at cluster level and the chosen policy
// (rr, spread, binpack, pressure) routes each one to a member using the
// overload ladder's live signals; -rebalance (on by default) also runs
// the hotspot scan + budgeted live-migration loop. Requires -nodes > 1;
// -util sets every member's background, -overload arms the admission
// gates, -audit replays the placer trace too. The per-node scenario
// flags (-mode, -workload, -cp, -dur, -retry, -simprof, -metrics) are
// rejected in placed mode.
//
// -faults and -recover arm every placed member. A startup that
// dead-letters on its member bounces back through the placer and is
// re-placed by the same policy; members whose CP→DP breaker is open or
// whose overload ladder is on the brownout rung are excluded as
// targets. A VM the cluster gives up on ends in one of two cluster-level
// terminals: all-excluded (every member was excluded at decision time)
// or bounce-budget (it dead-lettered more often than the placer's
// bounce budget allows). The placement line reports them as
// cluster-dead and bounce-dead.
//
// -audit replays every node's trace through the runtime invariant
// auditor (internal/audit) after the run and exits non-zero on any
// violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// nodeRun is one wired node plus the workload's reporting hooks.
type nodeRun struct {
	sc      *scenario.Node
	faulted bool // -faults armed
	tasks   []*kernel.Thread
	// report prints the workload's human-readable result (single-node mode).
	report func()
	// collect folds the workload's metrics into fleet aggregates.
	collect func(agg *fleet.Aggregates)
}

// background is the -util DP load, nil when -util is 0.
func background(util float64) *workload.BackgroundConfig {
	if util <= 0 {
		return nil
	}
	cfg := workload.DefaultBackground(util)
	return &cfg
}

// build assembles the scenario for one seed; it is run once in
// single-node mode and once per member in fleet mode.
func build(mode, wl string, cp int, util float64, spec faults.Spec, retry, recov, ovl bool, seed int64, horizon sim.Duration) (*nodeRun, error) {
	var ccfg cluster.Config
	s := scenario.Spec{Seed: seed, Mode: scenario.Mode(mode), Faults: spec, Recover: recov, Overload: ovl, Background: background(util)}
	if wl == "vmstartup" {
		ccfg = cluster.DefaultConfig(1)
		ccfg.VMLifetime = 0
		if retry {
			ccfg.Retry = cluster.DefaultRetryPolicy()
		}
		if retry && recov {
			// The dead-letter requeue only makes sense with the retry
			// pipeline; resurrections are gated on the node's live health
			// so a statically-degraded or breaker-open node does not
			// re-ingest its own dead letters.
			ccfg.Requeue = cluster.DefaultRequeuePolicy()
		}
		if ovl {
			// The overload layer: the admission gate + priority shedder on
			// the manager, fed by the node's live brownout-ladder rung.
			ccfg.Admission = cluster.DefaultAdmissionPolicy()
			ccfg.Classify = cluster.DefaultClassify
		}
		s.VMs = &ccfg
	}
	sn, err := scenario.New(s)
	if err != nil {
		return nil, err
	}
	sc := &nodeRun{sc: sn, faulted: !spec.Zero()}
	node := sn.Node

	// CP churn: keep ~cp synth tasks alive.
	if cp > 0 {
		cfg := controlplane.DefaultSynthCP()
		r := node.Stream("sim.cp")
		var churn func(i int)
		churn = func(i int) {
			sc.tasks = append(sc.tasks, sn.Host.SpawnCP(fmt.Sprintf("synth%d", i), sn.WrapCP(controlplane.SynthCP(cfg, r))))
			node.Engine.Schedule(sim.Exponential(r, sim.Duration(float64(50*sim.Millisecond)/float64(cp))), func() { churn(i + 1) })
		}
		churn(0)
	}

	// Foreground benchmark.
	switch wl {
	case "none":
		sc.report = func() {}
		sc.collect = func(*fleet.Aggregates) {}
	case "ping":
		cfg := workload.DefaultPing()
		cfg.Count = int(horizon / cfg.Interval)
		p := workload.NewPing(node, cfg)
		p.Start(nil)
		sc.report = func() { fmt.Println(p.RTT.Summarize()) }
		sc.collect = func(a *fleet.Aggregates) { a.Merge("ping.rtt", p.RTT) }
	case "crr":
		c := workload.NewCRR(node, workload.DefaultCRR())
		c.Start()
		sc.report = func() {
			fmt.Printf("crr: %.0f conn/s, %.0f pkt/s, lat %v p99 %v\n",
				c.CPS(node.Now()), c.PPS(node.Now()),
				c.TxnLatency.Mean(), c.TxnLatency.Quantile(0.99))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Merge("crr.txn_latency", c.TxnLatency)
			a.Add("crr.cps", c.CPS(node.Now()))
			a.Add("crr.pps", c.PPS(node.Now()))
		}
	case "stream":
		s := workload.NewStream(node, workload.DefaultStream())
		s.Start()
		sc.report = func() {
			fmt.Printf("stream: %.0f pkt/s, lat %v p99 %v\n",
				s.PPS(node.Now()), s.Latency.Mean(), s.Latency.Quantile(0.99))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Merge("stream.latency", s.Latency)
			a.Add("stream.pps", s.PPS(node.Now()))
		}
	case "rr":
		r := workload.NewRR(node, workload.DefaultRR())
		r.Start()
		sc.report = func() {
			fmt.Printf("rr: %.0f pkt/s, lat %v p99 %v\n",
				r.PPS(node.Now()), r.Latency.Mean(), r.Latency.Quantile(0.99))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Merge("rr.latency", r.Latency)
			a.Add("rr.pps", r.PPS(node.Now()))
		}
	case "fio":
		f := workload.NewFio(node, workload.DefaultFio())
		f.Start()
		sc.report = func() {
			fmt.Printf("fio: %.0f IOPS, %.1f MB/s, lat %v p99 %v\n",
				f.IOPS(node.Now()), f.BandwidthMBps(node.Now()),
				f.Latency.Mean(), f.Latency.Quantile(0.99))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Merge("fio.latency", f.Latency)
			a.Add("fio.iops", f.IOPS(node.Now()))
			a.Add("fio.bw_mbps", f.BandwidthMBps(node.Now()))
		}
	case "mysql":
		m := workload.NewMySQL(node, workload.DefaultMySQL())
		m.Start()
		sc.report = func() {
			fmt.Printf("mysql: %.0f q/s avg, %.0f q/s max, %.0f tx/s\n",
				m.AvgQPS(node.Now()), m.MaxQPS(), m.AvgTPS(node.Now()))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Add("mysql.avg_qps", m.AvgQPS(node.Now()))
			a.Add("mysql.avg_tps", m.AvgTPS(node.Now()))
		}
	case "nginx":
		n := workload.NewNginx(node, workload.DefaultNginx(false, true))
		n.Start()
		sc.report = func() { fmt.Printf("nginx: %.0f req/s\n", n.RPS(node.Now())) }
		sc.collect = func(a *fleet.Aggregates) { a.Add("nginx.rps", n.RPS(node.Now())) }
	case "vmstartup":
		m := sn.Mgr
		m.Start()
		sc.report = func() {
			fmt.Printf("vmstartup: %s\n", m.Outcomes.String())
			fmt.Printf("vmstartup: startup mean %v p99 %v (SLO %v)\n",
				m.StartupTime.Mean(), m.StartupTime.Quantile(0.99), ccfg.StartupSLO)
			if ovl {
				sh := m.ShedByClass()
				fmt.Printf("vmstartup: shed batch=%d normal=%d latency-critical=%d queued=%d\n",
					sh[cluster.PriorityBatch], sh[cluster.PriorityNormal],
					sh[cluster.PriorityLatencyCritical], m.QueuedAdmission())
			}
		}
		sc.collect = func(a *fleet.Aggregates) {
			collectVMs(a, m)
			if ovl {
				sh := m.ShedByClass()
				a.Add("vm.shed", float64(m.Shed()))
				a.Add("vm.shed_batch", float64(sh[cluster.PriorityBatch]))
				a.Add("vm.shed_normal", float64(sh[cluster.PriorityNormal]))
				a.Add("vm.shed_lc", float64(sh[cluster.PriorityLatencyCritical]))
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	return sc, nil
}

// collectVMs folds the VM-startup request outcomes into fleet
// aggregates.
func collectVMs(a *fleet.Aggregates, m *cluster.Manager) {
	a.Merge("vm.startup", m.StartupTime)
	a.Add("vm.issued", float64(m.Issued))
	a.Add("vm.completed", float64(m.Completed))
	a.Add("vm.retried", float64(m.Retried()))
	a.Add("vm.dead_lettered", float64(m.DeadLettered()))
}

// cpSummary folds the scenario's synth-task outcomes into a histogram.
func cpSummary(tasks []*kernel.Thread) (done int, h *metrics.Histogram) {
	h = metrics.NewHistogram("cp.turnaround")
	for _, t := range tasks {
		if t.State() == kernel.StateDone {
			done++
			h.Record(t.Turnaround())
		}
	}
	return done, h
}

func main() {
	mode := flag.String("mode", "taichi", "taichi | static | type1 | type2 | naive")
	wl := flag.String("workload", "crr", "none | ping | crr | stream | rr | fio | mysql | nginx | vmstartup")
	cp := flag.Int("cp", 16, "concurrent synth_cp tasks (50ms each, continuous churn)")
	util := flag.Float64("util", 0.30, "background DP utilization target")
	durFlag := flag.Duration("dur", 2*time.Second, "simulated duration")
	seed := flag.Int64("seed", 1, "experiment seed")
	nodes := flag.Int("nodes", 1, "independently-seeded nodes running the scenario (fleet mode when > 1)")
	parallel := flag.Int("parallel", 0, "fleet worker-pool size (0 = GOMAXPROCS; output is identical for any value)")
	faultsFlag := flag.String("faults", "off", "fault-injection spec: off | default | key=value,... (see internal/faults.ParseSpec)")
	retry := flag.Bool("retry", false, "enable per-request deadlines, retries and dead-lettering for -workload vmstartup")
	recov := flag.Bool("recover", false, "arm the self-healing layer: scheduler de-escalation ladder, and (with -retry -workload vmstartup) the health-gated dead-letter requeue")
	overload := flag.Bool("overload", false, "arm the overload-control layer: the core brownout ladder, and (with -workload vmstartup) the priority-aware admission gate and shedder")
	auditFlag := flag.Bool("audit", false, "replay every node's trace through the runtime invariant auditor after the run; exit 1 on any violation")
	place := flag.String("place", "", "cluster placement policy: rr | spread | binpack | pressure (placed fleet mode, -nodes > 1)")
	rebalance := flag.Bool("rebalance", true, "with -place: run the hotspot scan + budgeted live-migration loop")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot to this file (.prom = Prometheus text, anything else = JSON)")
	simprof := flag.Bool("simprof", false, "engine self-profiling: per-event-class dispatch counts, heap high-water mark, wall-clock attribution (single-node only)")
	flag.Parse()

	horizon := sim.Duration(durFlag.Nanoseconds())

	spec, err := faults.ParseSpec(*faultsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *place != "" {
		pol := placement.Policy(*place)
		if !pol.Valid() {
			fmt.Fprintf(os.Stderr, "unknown placement policy %q (rr | spread | binpack | pressure)\n", *place)
			os.Exit(2)
		}
		if *nodes <= 1 {
			fmt.Fprintln(os.Stderr, "-place needs -nodes > 1")
			os.Exit(2)
		}
		// The placer drives its own arrivals on fixed Tai Chi members, so
		// the per-node scenario flags have nothing to act on.
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mode", "workload", "cp", "dur", "retry", "simprof", "metrics":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(os.Stderr, "-place does not use %s\n", strings.Join(ignored, ", "))
			os.Exit(2)
		}
		runPlaced(pol, *rebalance, *overload, *auditFlag, spec, *recov, *seed, *util, *nodes, *parallel)
		return
	}

	if *nodes > 1 {
		if *simprof {
			fmt.Fprintln(os.Stderr, "-simprof profiles one engine; use it with -nodes 1")
			os.Exit(2)
		}
		runFleet(*mode, *wl, *cp, *util, spec, *retry, *recov, *overload, *auditFlag, *seed, horizon, *nodes, *parallel, *metricsOut)
		return
	}

	sc, err := build(*mode, *wl, *cp, *util, spec, *retry, *recov, *overload, *seed, horizon)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	node, tc := sc.sc.Node, sc.sc.TC

	var prof *sim.Profile
	if *simprof {
		prof = sim.NewProfile()
		// Wall-clock attribution is injected here, in cmd/ where wall
		// time is legal — the engine itself never reads a clock.
		prof.Clock = func() int64 { return time.Now().UnixNano() } //taichi:allow walltime — profiler attribution source, never enters simulated state
		node.Engine.EnableProfile(prof)
	}

	start := time.Now() //taichi:allow walltime — operator-facing wall-clock cost of the run; never enters simulated state
	node.Run(node.Now().Add(horizon))
	wall := time.Since(start) //taichi:allow walltime — paired with the start stamp above, reported alongside simulated time

	fmt.Printf("mode=%s workload=%s simulated=%v wall=%.2fs events=%d\n",
		*mode, *wl, horizon, wall.Seconds(), node.Engine.Fired())
	sc.report()

	// CP summary.
	if len(sc.tasks) > 0 {
		done, h := cpSummary(sc.tasks)
		fmt.Printf("cp: %d/%d synth tasks done, turnaround mean %v p99 %v\n",
			done, len(sc.tasks), h.Mean(), h.Quantile(0.99))
	}

	// DP utilization + Tai Chi internals.
	fmt.Printf("dp: net util %.1f%%", 100*node.Net.MeanUtilization())
	if node.Stor != nil {
		fmt.Printf(", stor util %.1f%%", 100*node.Stor.MeanUtilization())
	}
	fmt.Println()
	if tc != nil {
		fmt.Printf("taichi: yields=%d preempts=%d rotations=%d rescues=%d preempt_lat p99=%v\n",
			tc.Sched.Yields.Value(), tc.Sched.Preempts.Value(),
			tc.Sched.Rotations.Value(), tc.Sched.Rescues.Value(),
			tc.Sched.PreemptLatency.Quantile(0.99))
	}
	if sc.faulted {
		s := tc.Sched
		fmt.Println(sc.sc.Inj.Counts.String())
		fmt.Printf("defense: mode=%s detected=%d recovered=%d retries=%d teardowns=%d probe-fallbacks=%d static-fallbacks=%d\n",
			s.DefenseMode(), s.FaultsDetected.Value(), s.FaultsRecovered.Value(),
			s.WatchdogRetries.Value(), s.WatchdogTeardowns.Value(),
			s.ProbeFallbacks.Value(), s.StaticFallbacks.Value())
		if tc.Breaker != nil {
			fmt.Println(tc.Breaker.Describe())
		}
	}
	if *recov {
		rs := tc.Sched.RecoveryStats()
		fmt.Printf("recovery: recoveries=%d reescalations=%d generation=%d rejoined=%v\n",
			tc.Sched.DefenseRecoveries.Value(), tc.Sched.Reescalations.Value(),
			rs.Generation, rs.Rejoined)
	}
	if *overload {
		ovs := tc.Sched.OverloadStats()
		fmt.Printf("overload: state=%s peak=%s pressure=%.3f enters=%d exits=%d\n",
			ovs.State, ovs.Peak, ovs.Pressure,
			tc.Sched.OverloadEnters.Value(), tc.Sched.OverloadExits.Value())
	}

	if prof != nil {
		// Deterministic half first (dispatch counts, heap depth), then the
		// wall-clock attribution, which varies run to run by design.
		fmt.Print(prof.Describe())
		for _, c := range prof.Dispatch() {
			if c.WallNs > 0 {
				fmt.Printf("sim-profile.wall: %s=%.3fms\n", c.Name, float64(c.WallNs)/1e6)
			}
		}
	}

	if *metricsOut != "" {
		writeMetrics(*metricsOut, snapshotScenario(sc))
	}
	if *auditFlag {
		rep := sc.sc.Audit()
		fmt.Print(rep.String())
		if !rep.Ok() {
			os.Exit(1)
		}
	}
}

// snapshotScenario assembles the single-node metrics snapshot: the
// node registry, the workload's collect output, and the scheduler /
// request-manager / fault-injector counters when present.
func snapshotScenario(sc *nodeRun) *obs.Snapshot {
	snap := obs.NewSnapshot()
	snap.AddRegistry("node", sc.sc.Node.Metrics)
	snap.AddCounter("engine_events", sc.sc.Node.Engine.Fired())
	agg := fleet.NewAggregates()
	sc.collect(agg)
	addAggregates(snap, agg)
	if sc.sc.TC != nil {
		s := sc.sc.TC.Sched
		snap.AddCounter("sched_yields", s.Yields.Value())
		snap.AddCounter("sched_preempts", s.Preempts.Value())
		snap.AddCounter("sched_rescues", s.Rescues.Value())
		snap.AddCounter("sched_rotations", s.Rotations.Value())
		snap.AddHistogram("sched_preempt_latency", s.PreemptLatency)
	}
	if m := sc.sc.Mgr; m != nil {
		snap.AddGroup("vm_outcomes", m.Outcomes)
		snap.AddHistogram("vm_startup", m.StartupTime)
		snap.AddHistogram("vm_cp_exec", m.CPExecTime)
	}
	if sc.faulted {
		snap.AddGroup("faults_injected", sc.sc.Inj.Counts)
	}
	return snap
}

// snapshotFleet assembles the fleet-wide snapshot from merged
// aggregates.
func snapshotFleet(agg *fleet.Aggregates) *obs.Snapshot {
	snap := obs.NewSnapshot()
	snap.AddCounter("fleet_members", uint64(agg.Members))
	addAggregates(snap, agg)
	return snap
}

// addAggregates adds aggregates to a snapshot: histograms as summaries,
// scalars as gauges.
func addAggregates(snap *obs.Snapshot, agg *fleet.Aggregates) {
	for _, name := range agg.HistogramNames() {
		snap.AddHistogram(name, agg.Histogram(name))
	}
	for _, name := range agg.ScalarNames() {
		snap.AddGauge(name, agg.Scalar(name))
	}
}

// writeMetrics renders the snapshot by file extension: .prom gets the
// Prometheus text exposition, anything else JSON.
func writeMetrics(path string, snap *obs.Snapshot) {
	var data []byte
	if strings.HasSuffix(path, ".prom") {
		data = snap.Prometheus()
	} else {
		data = snap.JSON()
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("metrics snapshot written to %s\n", path)
}

// runPlaced executes the placed fleet: n Tai Chi nodes under the cluster
// placer, VM startups arriving at cluster level and routed by the chosen
// policy, with the rebalance loop optionally live-migrating residents
// off hotspots. -faults and -recover arm every member as in fleet mode;
// a startup that dead-letters on a faulted member bounces back through
// the placer. The run drains when every startup settles; output is
// seed-deterministic for any -parallel value.
func runPlaced(pol placement.Policy, rebalance, ovl, auditFlag bool, spec faults.Spec, recov bool, seed int64, util float64, n, workers int) {
	start := time.Now() //taichi:allow walltime — operator-facing wall-clock cost of the run; never enters simulated state
	nodes := make([]*scenario.Node, n)
	members := make([]placement.Member, n)
	for i := 0; i < n; i++ {
		ccfg := cluster.DefaultConfig(1)
		ccfg.VMLifetime = 0
		ccfg.Retry = cluster.DefaultRetryPolicy()
		if ovl {
			ccfg.Admission = cluster.DefaultAdmissionPolicy()
			ccfg.Classify = cluster.DefaultClassify
		}
		ccfg.Placement = cluster.DefaultPlacementPolicy()
		nodes[i] = scenario.Must(scenario.New(scenario.Spec{
			Seed: fleet.MemberSeed(seed, i), Mode: scenario.ModeTaiChi,
			Faults: spec, Recover: recov, Overload: true,
			Background: background(util), VMs: &ccfg,
		}))
		nodes[i].Mgr.Start()
		members[i] = placement.NewClusterNode(nodes[i].TC, nodes[i].Mgr)
	}

	pcfg := placement.DefaultConfig()
	pcfg.Policy = pol
	pcfg.Rebalance = rebalance
	pcfg.Workers = workers
	eng := placement.NewEngine(seed, pcfg, members)
	st := eng.Run()
	wall := time.Since(start) //taichi:allow walltime — paired with the start stamp above, reported alongside simulated time

	startup := metrics.NewHistogram("vm.startup")
	var completed, dead uint64
	for _, sn := range nodes {
		startup.Merge(sn.Mgr.StartupTime)
		completed += sn.Mgr.Completed
		dead += sn.Mgr.DeadLettered()
	}
	fmt.Printf("place=%s nodes=%d rebalance=%v vms=%d wall=%.2fs\n",
		pol, n, rebalance, pcfg.VMs, wall.Seconds())
	fmt.Printf("placement: placed=%d replaced=%d cluster-dead=%d bounce-dead=%d scans=%d\n",
		st.Placed, st.Replaced, st.AllExcluded, st.BounceDead, st.Scans)
	fmt.Printf("rebalance: migrations=%d/%d dwell=%d max-starts/scan=%d (budget %d) pause=%v\n",
		st.MigrationsDone, st.MigrationsStarted, st.HotScans,
		st.MaxStartsPerScan, pcfg.MigrationBudget, st.PauseTotal)
	fmt.Printf("vmstartup: completed=%d dead-lettered=%d startup mean %v p99 %v\n",
		completed, dead, startup.Mean(), startup.Quantile(0.99))
	if !spec.Zero() {
		var injected, detected, recovered uint64
		for _, sn := range nodes {
			injected += sn.Inj.Counts.Total()
			detected += sn.TC.Sched.FaultsDetected.Value()
			recovered += sn.TC.Sched.FaultsRecovered.Value()
		}
		fmt.Printf("faults: injected=%d detected=%d recovered=%d\n", injected, detected, recovered)
	}
	if auditFlag {
		reps := make([]*audit.Report, n)
		for i, sn := range nodes {
			reps[i] = sn.Audit()
		}
		reportAudits(audit.Run(eng.Tracer().Events(), audit.Options{}), reps)
	}
}

// reportAudits prints every failing report (the placer's first, when
// there is one) and the violation total, exiting 1 on any violation.
func reportAudits(placer *audit.Report, nodes []*audit.Report) {
	violations := 0
	if placer != nil {
		violations += len(placer.Violations)
		if !placer.Ok() {
			fmt.Printf("placer %s", placer.String())
		}
	}
	for i, rep := range nodes {
		violations += len(rep.Violations)
		if !rep.Ok() {
			fmt.Printf("node%d %s", i, rep.String())
		}
	}
	fmt.Printf("audit: nodes=%d violations=%d\n", len(nodes), violations)
	if violations > 0 {
		os.Exit(1)
	}
}

// runFleet executes the scenario on n independently-seeded nodes via the
// bounded worker pool and prints the merged fleet-wide statistics.
func runFleet(mode, wl string, cp int, util float64, spec faults.Spec, retry, recov, ovl, auditFlag bool, seed int64, horizon sim.Duration, n, workers int, metricsOut string) {
	start := time.Now() //taichi:allow walltime — fleet throughput report (nodes/s); results themselves are seed-deterministic
	// Per-member audit reports, filled by index on the worker pool and
	// printed in member order afterwards.
	audits := make([]*audit.Report, n)
	agg := fleet.RunWorkers(n, seed, workers, func(idx int, memberSeed int64, a *fleet.Aggregates) {
		sc, err := build(mode, wl, cp, util, spec, retry, recov, ovl, memberSeed, horizon)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		node, tc := sc.sc.Node, sc.sc.TC
		node.Run(node.Now().Add(horizon))
		if auditFlag {
			audits[idx] = sc.sc.Audit()
		}
		sc.collect(a)
		if sc.faulted {
			a.Add("faults.injected", float64(sc.sc.Inj.Counts.Total()))
			a.Add("faults.detected", float64(tc.Sched.FaultsDetected.Value()))
			a.Add("faults.recovered", float64(tc.Sched.FaultsRecovered.Value()))
		}
		done, h := cpSummary(sc.tasks)
		a.Merge("cp.turnaround", h)
		a.Add("cp.tasks", float64(len(sc.tasks)))
		a.Add("cp.done", float64(done))
		a.Add("events", float64(node.Engine.Fired()))
		a.Add("dp.net_util", node.Net.MeanUtilization())
		if node.Stor != nil {
			a.Add("dp.stor_util", node.Stor.MeanUtilization())
		}
	})
	wall := time.Since(start) //taichi:allow walltime — wall-clock half of the speedup table, not simulation input
	fmt.Printf("mode=%s workload=%s nodes=%d simulated=%v wall=%.2fs events=%.0f\n",
		mode, wl, agg.Members, horizon, wall.Seconds(), agg.Scalar("events"))
	fmt.Print(agg.Describe())
	members := float64(agg.Members)
	fmt.Printf("per-node means: cp done %.1f/%.1f, net util %.1f%%, stor util %.1f%%\n",
		agg.Scalar("cp.done")/members, agg.Scalar("cp.tasks")/members,
		100*agg.Scalar("dp.net_util")/members, 100*agg.Scalar("dp.stor_util")/members)
	if metricsOut != "" {
		writeMetrics(metricsOut, snapshotFleet(agg))
	}
	if auditFlag {
		reportAudits(nil, audits)
	}
}
