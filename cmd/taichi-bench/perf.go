package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// perfScenario is one pinned perf-harness scenario: a fixed-seed,
// fixed-shape simulation the regression harness re-runs release after
// release. The run function returns the engine-event count, the
// simulated time covered, and a metrics snapshot for -metrics-dir.
// Scenarios always run with seed pinned to 1 so the simulation side
// (events, simulated time, snapshot) is identical on every host —
// only the wall-clock figures move.
type perfScenario struct {
	name string
	desc string
	run  func() (events uint64, simulated sim.Duration, snap *obs.Snapshot)
}

const perfSeed = 1

// perfScenarios are the pinned `make bench` scenarios, named after the
// experiments whose hot paths they exercise.
var perfScenarios = []perfScenario{
	{
		name: "fig2",
		desc: "static baseline, density-4 VM startup (motivation hot path)",
		run:  density4VMs(scenario.ModeStatic),
	},
	{
		name: "fig17",
		desc: "Tai Chi, density-4 VM startup (lending + reclaim hot path)",
		run:  density4VMs(scenario.ModeTaiChi),
	},
	{
		name: "chaos",
		desc: "Tai Chi under DefaultSpec faults with ping + CP churn (defense hot path)",
		run: func() (uint64, sim.Duration, *obs.Snapshot) {
			n := scenario.Must(scenario.New(scenario.Spec{Seed: perfSeed, Mode: scenario.ModeTaiChi, Faults: faults.DefaultSpec()}))
			node := n.Node
			pcfg := workload.DefaultPing()
			horizon := 1 * sim.Second
			pcfg.Count = int(horizon / pcfg.Interval)
			p := workload.NewPing(node, pcfg)
			p.Start(nil)
			scfg := controlplane.DefaultSynthCP()
			r := node.Stream("bench.cp")
			for i := 0; i < 8; i++ {
				n.Host.SpawnCP(fmt.Sprintf("synth%d", i), n.WrapCP(controlplane.SynthCP(scfg, r)))
			}
			node.Run(sim.Time(horizon))
			snap := obs.NewSnapshot()
			snap.AddCounter("engine_events", node.Engine.Fired())
			snap.AddHistogram("ping_rtt", p.RTT)
			snap.AddGroup("faults_injected", n.Inj.Counts)
			return node.Engine.Fired(), horizon, snap
		},
	},
	{
		name: "vmstartup",
		desc: "Tai Chi, retrying VM startup under faults, drained to terminal (lifecycle hot path)",
		run: func() (uint64, sim.Duration, *obs.Snapshot) {
			cfg := cluster.DefaultConfig(1)
			cfg.VMs = 32
			cfg.VMLifetime = 0
			cfg.Retry = cluster.DefaultRetryPolicy()
			n := scenario.Must(scenario.New(scenario.Spec{Seed: perfSeed, Mode: scenario.ModeTaiChi, Faults: faults.DefaultSpec(), VMs: &cfg}))
			n.Mgr.Start()
			// Drain in fixed chunks until every request is terminal; the
			// bound is a runaway backstop, same idiom as the chaos harness.
			n.RunUntil(500*sim.Millisecond, 120, func() bool { return int(n.Mgr.Issued) >= cfg.VMs && n.Mgr.Terminal() })
			eng := n.Node.Engine
			return eng.Fired(), sim.Duration(eng.Now()), vmSnapshot(eng.Fired(), n.Mgr)
		},
	},
	{
		name: "overload",
		desc: "Tai Chi, 3x offered load through the admission gate + brownout ladder (overload hot path)",
		run: func() (uint64, sim.Duration, *obs.Snapshot) {
			bg := workload.DefaultBackground(0.9)
			cfg := cluster.DefaultConfig(3)
			cfg.VMs = 48
			cfg.VMLifetime = 0
			cfg.Retry = cluster.DefaultRetryPolicy()
			cfg.Admission = cluster.DefaultAdmissionPolicy()
			cfg.Classify = cluster.DefaultClassify
			n := scenario.Must(scenario.New(scenario.Spec{
				Seed: perfSeed, Mode: scenario.ModeTaiChi, Overload: true, Background: &bg, VMs: &cfg,
			}))
			eng := n.Node.Engine
			eng.At(sim.Time(600*sim.Millisecond), n.BG.Stop)
			n.Mgr.Start()
			n.RunUntil(500*sim.Millisecond, 120, func() bool { return int(n.Mgr.Issued) >= cfg.VMs && n.Mgr.Settled() })
			return eng.Fired(), sim.Duration(eng.Now()), vmSnapshot(eng.Fired(), n.Mgr)
		},
	},
	{
		name: "placement",
		desc: "cluster placer, pressure policy over a 3-node placed fleet (placement + migration hot path)",
		run: func() (uint64, sim.Duration, *obs.Snapshot) {
			const nodes = 3
			members := make([]*placement.ClusterNode, nodes)
			ifaces := make([]placement.Member, nodes)
			for i := 0; i < nodes; i++ {
				bg := workload.DefaultBackground(0.25)
				cfg := cluster.DefaultConfig(1)
				cfg.VMLifetime = 0
				cfg.Retry = cluster.DefaultRetryPolicy()
				cfg.Placement = cluster.DefaultPlacementPolicy()
				n := scenario.Must(scenario.New(scenario.Spec{
					Seed: perfSeed + int64(i), Mode: scenario.ModeTaiChi, Overload: true, Background: &bg, VMs: &cfg,
				}))
				n.Mgr.Start()
				members[i] = placement.NewClusterNode(n.TC, n.Mgr)
				ifaces[i] = members[i]
			}
			pcfg := placement.DefaultConfig()
			pcfg.VMs = 16
			pcfg.Workers = 1
			eng := placement.NewEngine(perfSeed, pcfg, ifaces)
			st := eng.Run()
			var fired uint64
			startup := metrics.NewHistogram("vm_startup")
			for _, m := range members {
				fired += m.TC.Engine().Fired()
				startup.Merge(m.Mgr.StartupTime)
			}
			snap := obs.NewSnapshot()
			snap.AddCounter("engine_events", fired)
			snap.AddHistogram("vm_startup", startup)
			snap.AddCounter("placement_placed", uint64(st.Placed))
			snap.AddCounter("placement_migrations", uint64(st.MigrationsDone))
			snap.AddCounter("placement_scans", uint64(st.Scans))
			return fired, sim.Duration(members[0].TC.Engine().Now()), snap
		},
	},
}

// density4VMs is the fig2/fig17 scenario on the given host: 2 s of
// density-4 VM startups with no teardowns.
func density4VMs(mode scenario.Mode) func() (uint64, sim.Duration, *obs.Snapshot) {
	return func() (uint64, sim.Duration, *obs.Snapshot) {
		cfg := cluster.DefaultConfig(4)
		cfg.VMLifetime = 0
		n := scenario.Must(scenario.New(scenario.Spec{Seed: perfSeed, Mode: mode, VMs: &cfg}))
		n.Mgr.Start()
		horizon := 2 * sim.Second
		n.Node.Run(sim.Time(horizon))
		return n.Node.Engine.Fired(), horizon, vmSnapshot(n.Node.Engine.Fired(), n.Mgr)
	}
}

// vmSnapshot is the shared snapshot shape of the VM-startup scenarios.
func vmSnapshot(fired uint64, mgr *cluster.Manager) *obs.Snapshot {
	snap := obs.NewSnapshot()
	snap.AddCounter("engine_events", fired)
	snap.AddGroup("vm_outcomes", mgr.Outcomes)
	snap.AddHistogram("vm_startup", mgr.StartupTime)
	snap.AddHistogram("vm_cp_exec", mgr.CPExecTime)
	return snap
}

// selectScenarios resolves a comma-separated -scenarios list ("" = all).
func selectScenarios(list string) ([]perfScenario, error) {
	if list == "" {
		return perfScenarios, nil
	}
	var out []perfScenario
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, s := range perfScenarios {
			if s.name == name {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown scenario %q (have: %s)", name, scenarioNames())
		}
	}
	return out, nil
}

func scenarioNames() string {
	names := make([]string, len(perfScenarios))
	for i, s := range perfScenarios {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// measure runs one scenario iters times and folds the wall/alloc/event
// figures into the BENCH_taichi.json row. Iterations repeat the same
// pinned seed, so the per-op simulation-side fields are exact, not
// averages of different runs.
func measure(s perfScenario, iters int, metricsDir string) (obs.BenchScenario, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now() //taichi:allow walltime — the perf harness measures wall time by definition; simulation state never sees it
	var events uint64
	var simulated sim.Duration
	var snap *obs.Snapshot
	for i := 0; i < iters; i++ {
		events, simulated, snap = s.run()
	}
	wall := time.Since(start) //taichi:allow walltime — paired with the start stamp above
	runtime.ReadMemStats(&after)

	if metricsDir != "" {
		if err := os.WriteFile(filepath.Join(metricsDir, s.name+".prom"), snap.Prometheus(), 0o644); err != nil {
			return obs.BenchScenario{}, err
		}
		if err := os.WriteFile(filepath.Join(metricsDir, s.name+".json"), snap.JSON(), 0o644); err != nil {
			return obs.BenchScenario{}, err
		}
	}

	nsPerOp := wall.Nanoseconds() / int64(iters)
	if nsPerOp <= 0 {
		nsPerOp = 1
	}
	return obs.BenchScenario{
		Scenario:         s.name,
		Iters:            iters,
		NsPerOp:          nsPerOp,
		EventsPerOp:      events,
		EventsPerSec:     float64(events) * float64(iters) / wall.Seconds(),
		AllocsPerOp:      int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:       int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		SimulatedNsPerOp: int64(simulated),
	}, nil
}

// runPerfHarness is the -benchout entry point: run the pinned
// scenarios, validate the document against the schema, and write
// BENCH_taichi.json.
func runPerfHarness(outPath, scenarios string, iters int, metricsDir string) {
	if iters < 1 {
		iters = 1
	}
	selected, err := selectScenarios(scenarios)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if metricsDir != "" {
		if err := os.MkdirAll(metricsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	file := obs.BenchFile{Schema: obs.BenchSchema, GoVersion: runtime.Version()}
	for _, s := range selected {
		fmt.Printf("bench %-10s %s\n", s.name, s.desc)
		row, err := measure(s, iters, metricsDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  %d iter(s): %.1fms/op, %d events/op, %.2fM events/s, %d allocs/op\n",
			row.Iters, float64(row.NsPerOp)/1e6, row.EventsPerOp,
			row.EventsPerSec/1e6, row.AllocsPerOp)
		file.Scenarios = append(file.Scenarios, row)
	}
	data := file.Marshal()
	if _, err := obs.ValidateBench(data); err != nil {
		fmt.Fprintf(os.Stderr, "internal error: generated bench file invalid: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d scenario(s))\n", outPath, len(file.Scenarios))
}

// validateBenchFile is the -validate entry point: parse and
// schema-check an existing BENCH_taichi.json.
func validateBenchFile(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := obs.ValidateBench(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("%s: valid (%s, %d scenario(s))\n", path, f.Schema, len(f.Scenarios))
}
