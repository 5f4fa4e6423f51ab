package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Shape sizes one workload instance. Every op covers at least Horizon of
// simulated time and then keeps running until every request is
// terminal, so the host cost of an op does not swing with how early a
// seed's last startup happened to finish.
type Shape struct {
	// VMs is the VM startups a single node issues, or the cluster
	// arrivals per member in a fleet.
	VMs int
	// Members is the fleet size (fleet only); a quarter are heavy.
	Members int
	// Horizon is the simulated time every op covers at least.
	Horizon sim.Duration
	// Workers is the fleet's member-advance pool size (fleet only).
	Workers int
}

// procs is the GOMAXPROCS an op of this shape runs with: one per fleet
// worker, and one for a single node, whose simulation is one goroutine.
// A second P would only run the GC beside it, and whether the host has a
// core free for that swings the op's wall time from run to run.
func (s Shape) procs() int { return max(1, s.Workers) }

// fleetWorkers is the fleet's member-advance pool size.
const fleetWorkers = 2

// Workload builds instances of one named scenario.
type Workload struct {
	Name string
	Why  string
	// Full is the measured shape; Tiny is the self-test shape.
	Full, Tiny Shape
	Build      func(seed int64, s Shape, o Observer) *Instance
}

// Workloads lists every workload in run order.
var Workloads = []Workload{
	{
		Name:  "lend",
		Why:   "one Tai Chi node at the paper's ~30% bursty DP load with density-4 VM startups and ping: lending and the packet path dominate",
		Full:  Shape{VMs: 100, Horizon: 3200 * sim.Millisecond},
		Tiny:  Shape{VMs: 6, Horizon: 200 * sim.Millisecond},
		Build: buildLend,
	},
	{
		Name:  "fleet",
		Why:   "eight placed members, a quarter at 4x DP load, pressure placer with rebalance on 2 workers, then audit: the only pool, barrier and admission path",
		Full:  Shape{VMs: 3, Members: 8, Horizon: 6500 * sim.Millisecond, Workers: fleetWorkers},
		Tiny:  Shape{VMs: 1, Members: 4, Horizon: 2 * sim.Second, Workers: fleetWorkers},
		Build: buildFleet,
	},
	{
		Name:  "chaos",
		Why:   "one idle-DP node under default faults with recovery, retry and requeue, then obs derive, Chrome export and audit: the fault and trace-replay paths",
		Full:  Shape{VMs: 128, Horizon: 7 * sim.Second},
		Tiny:  Shape{VMs: 6, Horizon: 400 * sim.Millisecond},
		Build: buildChaos,
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Observer is how the benchmark watches an instance from outside, by
// wrapping the calls it makes into the program. The zero value observes
// nothing; the untraced run sets only Phase and Dir.
type Observer struct {
	// Profile, when non-nil, supplies the profile installed on node
	// idx's engine right after the node is built.
	Profile func(idx int) *sim.Profile
	// Wrap, when non-nil, wraps fleet member idx before the placer
	// sees it.
	Wrap func(idx int, m placement.Member) placement.Member
	// Phase, when non-nil, runs one named phase of the op (it times it).
	Phase func(name string, fn func())
	// Dir, when non-empty, is where chaos writes its Chrome export and
	// reads it back.
	Dir string
}

func (o Observer) phase(name string, fn func()) {
	if o.Phase == nil {
		fn()
		return
	}
	o.Phase(name, fn)
}

// Instance is one assembled workload, ready to run exactly once.
type Instance struct {
	// Run executes the op: the simulation to its drain point plus any
	// post-run passes over the trace.
	Run func() error
	// Verify, when non-nil, checks the op's output after Run, outside
	// the timed window: what it costs is the host's disk, not the
	// simulator.
	Verify func() error
	// Outcome reads the results after Run without changing anything.
	Outcome func() *Outcome
}

// Outcome is what an op produced. Everything in it is modeled: it
// repeats exactly at a fixed seed, traced or not, on any host.
type Outcome struct {
	Events uint64

	PingRTT  *metrics.Histogram
	Startups []sim.Duration // completed startups
	Issued   uint64         // startups issued (cluster arrivals in a fleet)

	// Conservation lists request-conservation breaches after the drain.
	Conservation []string
	// Violations is the summed audit violation count over the Audited
	// traces the op replayed.
	Violations, Audited int

	// Spans and ExportBytes size chaos's obs passes.
	Spans, ExportBytes int
	// PlacerTrace is the fleet placer's decision trace.
	PlacerTrace []trace.Event

	Layers Counters
}

// Counters are layer counters read from public fields after the run.
type Counters struct {
	AccelPackets, ProbeIRQs                   uint64
	CtxSwitches                               uint64
	VCPUEntries, VCPUExits                    uint64
	Preempts, Yields                          uint64
	OverloadTransitions, FaultsDet, FaultsRec uint64
	Issued, Completed, Retried, DeadLettered  uint64
	Shed, Resurrected, Attempts               uint64
	BreakerTrips, FaultsInjected              uint64
	TraceRecords, TraceDropped                uint64
	Nodes                                     int
	NetUtil                                   float64 // summed over nodes
	PreemptLat, CPExec                        *metrics.Histogram
	Placement                                 placement.Stats
}

// node is one assembled Tai Chi node and what runs on it.
type node struct {
	tc    *core.TaiChi
	mgr   *cluster.Manager
	pings []*workload.Ping
	inj   *faults.Injector
}

// newNode builds a Tai Chi node and installs the observer's profile
// before anything is scheduled on it.
func newNode(seed int64, idx int, o Observer) *node {
	n := &node{tc: core.NewDefault(seed)}
	if o.Profile != nil {
		n.tc.Engine().EnableProfile(o.Profile(idx))
	}
	return n
}

// startPing starts an open-loop 1 ms ping on each of the first flows
// network DP cores (all of them for flows <= 0), so a bursty node's tail
// pools every core's bursts, not one core's. Each runs as long as the op.
func (n *node) startPing(flows int) {
	if cores := len(n.tc.Node.Net.Cores()); flows <= 0 || flows > cores {
		flows = cores
	}
	for flow := 0; flow < flows; flow++ {
		pc := workload.DefaultPing()
		pc.Count = math.MaxInt32
		pc.Flow = flow
		p := workload.NewPing(n.tc.Node, pc)
		p.Start(nil)
		n.pings = append(n.pings, p)
	}
}

// addPings merges the node's ping RTTs into h.
func (n *node) addPings(h *metrics.Histogram) {
	for _, p := range n.pings {
		h.Merge(p.RTT)
	}
}

// drainChunk is the simulated time one drain-loop Run covers; maxChunks
// is the runaway backstop (60 simulated seconds).
const (
	drainChunk = 100 * sim.Millisecond
	maxChunks  = 600
)

// drain runs the node in fixed chunks until it has covered the horizon
// and every issued request is settled.
func (n *node) drain(vms int, horizon sim.Duration) error {
	for i := 0; i < maxChunks; i++ {
		n.tc.Run(n.tc.Engine().Now().Add(drainChunk))
		if n.tc.Engine().Now() >= sim.Time(horizon) && int(n.mgr.Issued) >= vms && n.mgr.Settled() {
			return nil
		}
	}
	return fmt.Errorf("requests not settled after %v simulated", sim.Duration(n.tc.Engine().Now()))
}

// buildLend is the paper's core trade-off: bursty DP load on every DP
// core, density-4 VM startups borrowing its idle cycles, and ping probes
// on every network core measuring what the DP pays for the lending.
// Nothing reads lend's trace, so the node records none: the trace slice
// grows in 25% steps, and which step a seed ends on moved lend's live
// heap and peak RSS by 22-29% between seeds. chaos measures the trace.
func buildLend(seed int64, s Shape, o Observer) *Instance {
	n := newNode(seed, 0, o)
	n.tc.Node.Tracer.EnableOnly()
	workload.NewBackground(n.tc.Node, workload.DefaultBackground(0.30)).Start()
	cfg := cluster.DefaultConfig(4)
	cfg.VMs = s.VMs
	cfg.VMLifetime = 0
	n.mgr = cluster.NewManager(n.tc, cfg)
	n.mgr.Start()
	n.startPing(0)
	return &Instance{
		Run: func() error {
			var err error
			o.phase("run", func() { err = n.drain(s.VMs, s.Horizon) })
			return err
		},
		Outcome: func() *Outcome { return singleOutcome(n) },
	}
}

// buildChaos is the fault path: default faults with the recovery
// ladder, retry and requeue on a node with no DP background, then the
// passes that read the trace back: span derivation, the Chrome export
// and the audit. The export is then written out and read back, untimed.
// One ping probe samples the nearly idle packet path.
func buildChaos(seed int64, s Shape, o Observer) *Instance {
	n := newNode(seed, 0, o)
	n.inj = faults.NewInjector(faults.DefaultSpec())
	n.inj.Attach(n.tc)
	n.tc.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
	cfg := cluster.DefaultConfig(2)
	cfg.VMs = s.VMs
	cfg.VMLifetime = 0
	cfg.Retry = cluster.DefaultRetryPolicy()
	cfg.Requeue = cluster.DefaultRequeuePolicy()
	tc := n.tc
	cfg.Healthy = func() bool {
		if tc.Sched.DefenseMode() == core.ModeStatic {
			return false
		}
		return tc.Breaker == nil || tc.Breaker.State() != controlplane.BreakerOpen
	}
	cfg.WrapCP = n.inj.WrapCP
	n.mgr = cluster.NewManager(n.tc, cfg)
	n.mgr.Start()
	n.startPing(1)

	var rep *audit.Report
	var spans int
	var export []byte
	return &Instance{
		Run: func() error {
			var err error
			o.phase("run", func() { err = n.drain(s.VMs, s.Horizon) })
			if err != nil {
				return err
			}
			events := tc.Node.Tracer.Events()
			o.phase("derive", func() { spans = len(obs.Derive(events).Spans) })
			o.phase("chrome", func() {
				export = obs.ChromeJSON([]obs.NodeTrace{{Label: "chaos", Events: events}})
			})
			o.phase("audit", func() { rep = auditNode(tc) })
			return nil
		},
		Verify: func() error {
			if o.Dir == "" {
				return nil
			}
			return writeBack(o.Dir, export)
		},
		Outcome: func() *Outcome {
			out := singleOutcome(n)
			out.addAudit(rep)
			out.Spans, out.ExportBytes = spans, len(export)
			return out
		},
	}
}

// writeBack writes the export to disk, reads it back and checks the
// bytes survived the round trip.
func writeBack(dir string, export []byte) error {
	path := filepath.Join(dir, fmt.Sprintf("chaos-%d.trace.json", os.Getpid()))
	if err := os.WriteFile(path, export, 0o644); err != nil {
		return fmt.Errorf("write export: %w", err)
	}
	defer os.Remove(path)
	back, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read export back: %w", err)
	}
	if !bytes.Equal(back, export) {
		return fmt.Errorf("export read back differs: %d bytes written, %d read", len(export), len(back))
	}
	return nil
}

// auditNode replays one node's trace through the auditor.
func auditNode(tc *core.TaiChi) *audit.Report {
	opts := audit.Options{DroppedEvents: tc.Node.Tracer.Dropped()}
	if tc.Breaker != nil {
		c := tc.Breaker.Counters()
		opts.Breaker = &c
	}
	return audit.Run(tc.Node.Tracer.Events(), opts)
}

// Fleet shape, as in the placement sweep: light and heavy coarse DP
// utilization (the 4:1 skew), each hosted VM's DP footprint, the fleet's
// warm-up before the first arrival, and the placer's hotspot threshold.
const (
	lightUtil, heavyUtil = 0.19, 0.76
	vmFootprint          = 0.06
	arrivalDelay         = 1500 * sim.Millisecond
	hotAbs               = 2.0
)

// buildFleet is the placement sweep's pressure-policy fleet: a quarter
// of the members at 4x the coarse DP background of the rest, each behind
// an overload ladder and admission gate, placed and rebalanced on the
// worker pool and then audited. Every member also pings each of its
// network cores. Once the placer has drained, the members run on to the
// horizon.
func buildFleet(seed int64, s Shape, o Observer) *Instance {
	members := make([]*placement.ClusterNode, s.Members)
	nodes := make([]*node, s.Members)
	ifaces := make([]placement.Member, s.Members)
	heavy := s.Members / 4
	for i := range members {
		n := newNode(fleet.MemberSeed(seed, i), i, o)
		tc := n.tc
		tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
		util := lightUtil
		if i < heavy {
			util = heavyUtil
		}
		bg := workload.DefaultBackground(util)
		bg.NetWork *= 8
		bg.StorWork *= 8
		if i >= heavy {
			bg.BurstUtilization = 0.5
		}
		workload.NewBackground(tc.Node, bg).Start()
		cfg := cluster.DefaultConfig(1)
		cfg.VMLifetime = 0
		cfg.Retry = cluster.DefaultRetryPolicy()
		cfg.Admission = cluster.DefaultAdmissionPolicy()
		cfg.Admission.Rate = 4
		cfg.Admission.Burst = 4
		cfg.Admission.BurstFactor = [4]float64{1.0, 0.25, 0.15, 0.1}
		cfg.Admission.RateFactor = [4]float64{1.0, 0.15, 0.08, 0.04}
		cfg.Classify = cluster.DefaultClassify
		cfg.OverloadLevel = func() int { return int(tc.Sched.OverloadState()) }
		cfg.Placement = cluster.DefaultPlacementPolicy()
		n.mgr = cluster.NewManager(tc, cfg)
		n.mgr.Start()
		n.startPing(0)
		members[i] = placement.NewClusterNode(tc, n.mgr)
		members[i].VMDPUtil = vmFootprint
		nodes[i] = n
		ifaces[i] = members[i]
		if o.Wrap != nil {
			ifaces[i] = o.Wrap(i, members[i])
		}
	}
	pcfg := placement.DefaultConfig()
	pcfg.Policy = placement.PolicyPressure
	pcfg.VMs = s.VMs * s.Members
	pcfg.ArrivalDelay = arrivalDelay
	pcfg.ArrivalRate = float64(s.Members)
	pcfg.HotAbs = hotAbs
	pcfg.Workers = s.Workers
	eng := placement.NewEngine(seed, pcfg, ifaces)

	var st placement.Stats
	var reports []*audit.Report
	return &Instance{
		Run: func() error {
			o.phase("run", func() { st = eng.Run() })
			if st.Scans >= pcfg.MaxScans {
				return fmt.Errorf("placer did not drain in %d scans", st.Scans)
			}
			until := sim.Time(s.Horizon)
			if nodes[0].tc.Engine().Now() < until {
				o.phase("tail", func() {
					fleet.ForEach(len(ifaces), s.Workers, func(i int) { ifaces[i].Advance(until) })
				})
			}
			o.phase("audit", func() {
				reports = append(reports, audit.Run(eng.Tracer().Events(), audit.Options{}))
				for _, n := range nodes {
					reports = append(reports, auditNode(n.tc))
				}
			})
			return nil
		},
		Outcome: func() *Outcome {
			out := &Outcome{PingRTT: metrics.NewHistogram("ping.rtt")}
			for _, n := range nodes {
				out.Events += n.tc.Engine().Fired()
				n.addPings(out.PingRTT)
				out.addConservation(n.mgr)
				out.Layers.addNode(n)
			}
			// End-to-end startup runs from the cluster arrival to the
			// completion of the VM's final request, wherever it landed,
			// so a bounce counts against the startup that suffered it.
			for vm := 1; vm <= pcfg.VMs; vm++ {
				out.Issued++
				var done sim.Time
				for _, m := range members {
					if req := m.Request(vm); req != nil && req.State() == cluster.ReqCompleted && req.CompletedAt > done {
						done = req.CompletedAt
					}
				}
				if done != 0 {
					out.Startups = append(out.Startups, done.Sub(eng.Arrival(vm)))
				}
			}
			for _, r := range reports {
				out.addAudit(r)
			}
			out.Layers.Placement = st
			out.PlacerTrace = eng.Tracer().Events()
			out.Layers.TraceRecords += uint64(eng.Tracer().Len())
			out.Layers.TraceDropped += eng.Tracer().Dropped()
			return out
		},
	}
}

// singleOutcome reads a single-node op's results.
func singleOutcome(n *node) *Outcome {
	out := &Outcome{Events: n.tc.Engine().Fired(), PingRTT: metrics.NewHistogram("ping.rtt"), Issued: n.mgr.Issued}
	n.addPings(out.PingRTT)
	for _, r := range n.mgr.Requests() {
		if r.State() == cluster.ReqCompleted {
			out.Startups = append(out.Startups, r.CompletedAt.Sub(r.IssuedAt))
		}
	}
	out.addConservation(n.mgr)
	out.Layers.addNode(n)
	return out
}

// addConservation checks issued = completed + net dead-lettered + shed
// with nothing pending, after the drain.
func (o *Outcome) addConservation(m *cluster.Manager) {
	pending := 0
	for _, r := range m.Requests() {
		if !r.Terminal() {
			pending++
		}
	}
	net := m.DeadLettered() - m.Resurrected()
	if pending != 0 || !m.Settled() || m.Issued != m.Completed+net+m.Shed() {
		o.Conservation = append(o.Conservation, fmt.Sprintf(
			"issued=%d completed=%d dead=%d resurrected=%d shed=%d pending=%d settled=%v",
			m.Issued, m.Completed, m.DeadLettered(), m.Resurrected(), m.Shed(), pending, m.Settled()))
	}
}

func (o *Outcome) addAudit(r *audit.Report) {
	if r == nil {
		return
	}
	o.Audited++
	o.Violations += len(r.Violations)
}

// addNode folds one node's public counters into the layer totals.
func (c *Counters) addNode(n *node) {
	nd := n.tc.Node
	s := n.tc.Sched
	if c.PreemptLat == nil {
		c.PreemptLat = metrics.NewHistogram("preempt")
		c.CPExec = metrics.NewHistogram("cp_exec")
	}
	c.AccelPackets += nd.Pipe.Injected
	if nd.Probe != nil {
		c.ProbeIRQs += nd.Probe.IRQs
	}
	c.CtxSwitches += nd.Kernel.CtxSwitches.Value()
	for _, v := range s.VCPUs() {
		c.VCPUEntries += v.Entries
		c.VCPUExits += v.Exits
	}
	c.Preempts += s.Preempts.Value()
	c.Yields += s.Yields.Value()
	c.PreemptLat.Merge(s.PreemptLatency)
	c.OverloadTransitions += s.OverloadEnters.Value() + s.OverloadExits.Value()
	c.FaultsDet += s.FaultsDetected.Value()
	c.FaultsRec += s.FaultsRecovered.Value()
	m := n.mgr
	c.Issued += m.Issued
	c.Completed += m.Completed
	c.Retried += m.Retried()
	c.DeadLettered += m.DeadLettered()
	c.Shed += m.Shed()
	c.Resurrected += m.Resurrected()
	for _, r := range m.Requests() {
		c.Attempts += uint64(r.Attempts)
	}
	c.CPExec.Merge(m.CPExecTime)
	if n.tc.Breaker != nil {
		c.BreakerTrips += n.tc.Breaker.Trips()
	}
	if n.inj != nil {
		c.FaultsInjected += n.inj.Counts.Total()
	}
	c.TraceRecords += uint64(nd.Tracer.Len())
	c.TraceDropped += nd.Tracer.Dropped()
	c.Nodes++
	c.NetUtil += nd.Net.MeanUtilization()
}
