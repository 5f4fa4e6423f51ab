package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/placement"
	"repro/internal/sim"
)

// epoch anchors the benchmark's clock; clock is the nanosecond source
// handed to sim.Profile and used for every span.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// phaseStat is one phase's host cost.
type phaseStat struct {
	Wall    float64 // seconds
	Mallocs uint64
	Bytes   uint64
}

// span is one timed interval of a traced op. TID 0 holds the op's own
// phases; TID 1+i holds fleet member i's Advance calls.
type span struct {
	Name, Parent string
	TID          int
	Start, End   int64
}

// recorder times the op's phases from outside: wall and allocations per
// phase in every run, and spans in the traced run, kept in memory and
// written out when the op ends.
type recorder struct {
	traced bool
	phases map[string]phaseStat
	spans  []span
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, phases: map[string]phaseStat{}}
}

// phase runs fn as the named phase of the op.
func (r *recorder) phase(name string, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clock()
	fn()
	end := clock()
	runtime.ReadMemStats(&after)
	p := r.phases[name]
	p.Wall += float64(end-start) / 1e9
	p.Mallocs += after.Mallocs - before.Mallocs
	p.Bytes += after.TotalAlloc - before.TotalAlloc
	r.phases[name] = p
	r.span(name, "op", 0, start, end)
}

func (r *recorder) span(name, parent string, tid int, start, end int64) {
	if r.traced {
		r.spans = append(r.spans, span{Name: name, Parent: parent, TID: tid, Start: start, End: end})
	}
}

// timedMember times each Advance the placer (or the tail) makes into a
// fleet member. Each member's calls are only appended by the worker
// advancing it, and fleet.ForEach returns before anyone reads them.
type timedMember struct {
	placement.Member
	calls []call
}

type call struct{ Start, End int64 }

func (m *timedMember) Advance(until sim.Time) {
	start := clock()
	m.Member.Advance(until)
	m.calls = append(m.calls, call{start, clock()})
}

// probe is the traced run's instrumentation: one profile per node with
// the benchmark's clock, and a timing wrapper per fleet member.
type probe struct {
	profiles []*sim.Profile
	members  []*timedMember
}

func (p *probe) observer(rec *recorder, dir string) Observer {
	return Observer{
		Profile: func(idx int) *sim.Profile {
			prof := sim.NewProfile()
			prof.Clock = clock
			p.profiles = append(p.profiles, prof)
			return prof
		},
		Wrap: func(idx int, m placement.Member) placement.Member {
			tm := &timedMember{Member: m}
			p.members = append(p.members, tm)
			return tm
		},
		Phase: rec.phase,
		Dir:   dir,
	}
}

// classStat is one dispatch class summed over every node.
type classStat struct {
	Count  uint64
	WallNs int64
}

// classes sums the per-class dispatch profile over every node.
func (p *probe) classes() map[string]classStat {
	out := map[string]classStat{}
	for _, prof := range p.profiles {
		for _, c := range prof.Dispatch() {
			s := out[c.Name]
			s.Count += c.Count
			s.WallNs += c.WallNs
			out[c.Name] = s
		}
	}
	return out
}

// layerOf maps a dispatch class to the layer its callback belongs to.
// Unnamed events are "(anon)": reported as such, never guessed.
func layerOf(class string) string {
	if class == "(anon)" {
		return "anon"
	}
	prefix, _, _ := strings.Cut(class, ".")
	if prefix == "dp" {
		return "dataplane"
	}
	return prefix
}

// advance summarizes the fleet's member-advance calls. The k-th call of
// every member belongs to the k-th advance phase (a placer scan, or the
// tail); a phase's wall runs from its first start to its last end.
type advance struct {
	phases     []call
	memberBusy float64 // summed Advance wall, seconds
}

func (p *probe) advance() advance {
	var a advance
	for _, m := range p.members {
		for k, c := range m.calls {
			if k == len(a.phases) {
				a.phases = append(a.phases, c)
			}
			if c.Start < a.phases[k].Start {
				a.phases[k].Start = c.Start
			}
			if c.End > a.phases[k].End {
				a.phases[k].End = c.End
			}
			a.memberBusy += float64(c.End-c.Start) / 1e9
		}
	}
	return a
}

// wall returns the summed wall of advance phases [from, to).
func (a advance) wall(from, to int) float64 {
	var s float64
	for k := from; k < to && k < len(a.phases); k++ {
		s += float64(a.phases[k].End-a.phases[k].Start) / 1e9
	}
	return s
}

// layerMetrics derives the per-layer metrics of a traced op from the
// profiles, the phase timings, the member wrappers and the public
// counters. The parent adds the ones that need the untraced op too.
func layerMetrics(out *Outcome, p *probe, rec *recorder, workers int) map[string]float64 {
	m := map[string]float64{}
	c := out.Layers
	classes := p.classes()
	layerWall := map[string]float64{}
	var dispatched uint64
	var callbacks float64
	for name, s := range classes {
		dispatched += s.Count
		w := float64(s.WallNs) / 1e9
		callbacks += w
		layerWall[layerOf(name)] += w
	}
	// The engine's own time: the wall spent inside Run minus the wall
	// its callbacks took. In a fleet, Run happens inside member Advance.
	adv := p.advance()
	runWall := rec.phases["run"].Wall
	engineWall := runWall
	if len(p.members) > 0 {
		engineWall = adv.memberBusy
	}
	var hwm int
	for _, prof := range p.profiles {
		if h := prof.HeapHighWater(); h > hwm {
			hwm = h
		}
	}
	m["sim.events"] = float64(out.Events)
	m["sim.queue_hwm"] = float64(hwm)
	m["sim.self_s"] = engineWall - callbacks
	m["sim.anon_share"] = ratio(float64(classes["(anon)"].Count), float64(dispatched))
	m["sim.anon_self_s"] = layerWall["anon"]

	m["accel.packets"] = float64(c.AccelPackets)
	m["accel.self_s"] = layerWall["accel"]
	m["accel.ns_per_packet"] = ratio(layerWall["accel"]*1e9, float64(c.AccelPackets))
	m["accel.probe_irqs"] = float64(c.ProbeIRQs)

	batches, idle := classes["dp.batch"].Count, classes["dp.idle-poll"].Count
	m["dataplane.batches"] = float64(batches)
	m["dataplane.idle_polls"] = float64(idle)
	m["dataplane.useful_ratio"] = ratio(float64(batches), float64(batches+idle))
	m["dataplane.self_s"] = layerWall["dataplane"]
	m["dataplane.net_util"] = ratio(c.NetUtil, float64(c.Nodes))

	m["kernel.dispatches"] = float64(c.CtxSwitches)
	m["kernel.softirqs"] = float64(classes["kernel.softirq"].Count)
	m["kernel.self_s"] = layerWall["kernel"]

	m["vcpu.entries"] = float64(c.VCPUEntries)
	m["vcpu.exits"] = float64(c.VCPUExits)
	m["vcpu.self_s"] = layerWall["vcpu"]
	m["vcpu.ns_per_switch"] = ratio(layerWall["vcpu"]*1e9, float64(c.VCPUEntries+c.VCPUExits))

	m["core.preempts"] = float64(c.Preempts)
	m["core.yields"] = float64(c.Yields)
	m["core.preempt_lat_p99_us"] = float64(c.PreemptLat.Quantile(0.99)) / 1e3
	m["core.overload_transitions"] = float64(c.OverloadTransitions)
	m["core.faults_detected"] = float64(c.FaultsDet)
	m["core.faults_recovered"] = float64(c.FaultsRec)
	m["core.self_s"] = layerWall["core"]

	m["cluster.issued"] = float64(c.Issued)
	m["cluster.completed"] = float64(c.Completed)
	m["cluster.retried"] = float64(c.Retried)
	m["cluster.dead_lettered"] = float64(c.DeadLettered)
	m["cluster.shed"] = float64(c.Shed)
	m["cluster.resurrected"] = float64(c.Resurrected)
	m["cluster.attempts_per_completion"] = ratio(float64(c.Attempts), float64(c.Completed))
	m["cluster.self_s"] = layerWall["cluster"]

	m["controlplane.cp_exec_p50_ms"] = float64(c.CPExec.Quantile(0.5)) / 1e6
	m["controlplane.breaker_trips"] = float64(c.BreakerTrips)
	m["faults.injected"] = float64(c.FaultsInjected)

	st := c.Placement
	m["placement.scans"] = float64(st.Scans)
	m["placement.replaced"] = float64(st.Replaced)
	m["placement.migrations"] = float64(st.MigrationsStarted)
	m["placement.hot_scans"] = float64(st.HotScans)
	m["placement.barrier_s"] = 0
	m["fleet.advance_s"] = adv.wall(0, len(adv.phases))
	m["fleet.member_cpu_s"] = adv.memberBusy
	m["fleet.pool_eff"] = ratio(adv.memberBusy, m["fleet.advance_s"]*float64(workers))
	if len(p.members) > 0 {
		// The placer's own time: its Run wall minus the wall of the
		// scans' advance phases.
		m["placement.barrier_s"] = runWall - adv.wall(0, st.Scans)
	}

	m["trace.records"] = float64(c.TraceRecords)
	m["trace.dropped"] = float64(c.TraceDropped)
	m["obs.derive_s"] = rec.phases["derive"].Wall
	m["obs.chrome_s"] = rec.phases["chrome"].Wall
	m["obs.spans"] = float64(out.Spans)
	m["obs.chrome_mb"] = float64(out.ExportBytes) / (1 << 20)
	m["obs.ns_per_record"] = 0
	if out.Spans > 0 {
		m["obs.ns_per_record"] = ratio(m["obs.derive_s"]*1e9, float64(c.TraceRecords))
	}
	m["audit.replay_s"] = rec.phases["audit"].Wall
	m["audit.ns_per_record"] = 0
	if out.Audited > 0 {
		m["audit.ns_per_record"] = ratio(m["audit.replay_s"]*1e9, float64(c.TraceRecords))
	}
	m["audit.violations"] = float64(out.Violations)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recordAdvance adds the fleet's member-advance spans to the trace: one
// span per member call, and one barrier span between consecutive placer
// scans, from one scan's last advance end to the next one's first start.
func (p *probe) recordAdvance(rec *recorder, scans int) {
	adv := p.advance()
	for i, m := range p.members {
		for k, c := range m.calls {
			parent := "run"
			if k >= scans {
				parent = "tail"
			}
			rec.span("advance", parent, 1+i, c.Start, c.End)
		}
	}
	for k := 0; k+1 < scans && k+1 < len(adv.phases); k++ {
		rec.span("barrier", "run", 0, adv.phases[k].End, adv.phases[k+1].Start)
	}
}

// writeSpans writes the op's spans in Chrome trace-event format.
func writeSpans(path string, spans []span) error {
	var b bytes.Buffer
	b.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	for i, s := range spans {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "{\"name\":%q,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"parent\":%q}}",
			s.Name, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.TID, s.Parent)
	}
	b.WriteString("\n]}\n")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
