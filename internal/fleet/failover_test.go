package fleet_test

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Node failure in a placed fleet: when a member goes down, the startups
// it was still running are stranded. The member hands them back as
// dead-letters, the placer excludes it, and the stranded work is
// re-placed on the surviving members. These tests drive that path over
// real surviving members; the placement package owns the unit coverage.

// crashingMember is a fleet member that goes down at crashAt. Startups
// placed on it never finish; at the crash every one still hosted is
// handed back as a dead-letter, and from then on the member reports an
// open breaker so the placer excludes it.
type crashingMember struct {
	crashAt sim.Time
	crashed bool
	hosted  []int
	dead    []int
}

func (m *crashingMember) Advance(until sim.Time) {
	if !m.crashed && until >= m.crashAt {
		m.crashed = true
		m.dead = append(m.dead, m.hosted...)
		m.hosted = nil
	}
}

func (m *crashingMember) Sample() placement.Signals {
	return placement.Signals{BreakerOpen: m.crashed, Resident: len(m.hosted)}
}

func (m *crashingMember) Place(vm int) { m.hosted = append(m.hosted, vm) }

// Admit is never called: the fleets below run with rebalance off.
func (m *crashingMember) Admit(vm int) {}

func (m *crashingMember) Evict(vm int) {
	for i, h := range m.hosted {
		if h == vm {
			m.hosted = append(m.hosted[:i], m.hosted[i+1:]...)
			return
		}
	}
}

func (m *crashingMember) DrainDead() []int {
	out := m.dead
	m.dead = nil
	return out
}

func (m *crashingMember) Settled() bool { return len(m.hosted) == 0 }

// failoverFleet runs a placed fleet of n members under vms arrivals.
// Member 0 crashes one second in; members 1..n-1 are healthy Tai Chi
// nodes. It returns the crashing member, the healthy nodes, the placer
// and its stats.
func failoverFleet(n, vms, workers int) (*crashingMember, []*placement.ClusterNode, *placement.Engine, placement.Stats) {
	crash := &crashingMember{crashAt: sim.Time(0).Add(sim.Second)}
	members := []placement.Member{crash}
	var nodes []*placement.ClusterNode
	for i := 1; i < n; i++ {
		tc := core.NewDefault(fleet.MemberSeed(5, i))
		tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
		cfg := cluster.DefaultConfig(1)
		cfg.VMLifetime = 0
		cfg.Retry = cluster.DefaultRetryPolicy()
		cfg.Placement = cluster.DefaultPlacementPolicy()
		mgr := cluster.NewManager(tc, cfg)
		mgr.Start()
		nd := placement.NewClusterNode(tc, mgr)
		nodes = append(nodes, nd)
		members = append(members, nd)
	}
	cfg := placement.DefaultConfig()
	cfg.Policy = placement.PolicySpread
	cfg.VMs = vms
	cfg.Rebalance = false
	cfg.Workers = workers
	e := placement.NewEngine(5, cfg, members)
	st := e.Run()
	return crash, nodes, e, st
}

// TestFailoverRedistributesStranded checks that the startups stranded on
// the crashed member are redistributed: each is re-placed exactly once,
// only on a surviving member, every VM completes on exactly one member,
// and nothing is lost at cluster level.
func TestFailoverRedistributesStranded(t *testing.T) {
	const n, vms = 4, 16
	crash, nodes, e, st := failoverFleet(n, vms, 1)
	if !crash.crashed {
		t.Fatal("member 0 never crashed")
	}
	placedOn0 := map[int]bool{}
	replaced := map[int]int{}
	for _, ev := range e.Tracer().Events() {
		if ev.Kind != trace.KindVMPlace {
			continue
		}
		vm := int(ev.Arg)
		switch ev.Note {
		case "":
			if ev.CPU == 0 {
				placedOn0[vm] = true
			}
		case "replaced":
			if ev.CPU <= 0 {
				t.Fatalf("stranded vm %d re-placed on member %d", vm, ev.CPU)
			}
			replaced[vm]++
		}
	}
	if len(placedOn0) == 0 {
		t.Fatal("no startup was placed on member 0 before the crash")
	}
	if st.Replaced != len(placedOn0) || len(replaced) != len(placedOn0) {
		t.Fatalf("stranded %d, re-placed %d (%d distinct VMs), want all once", len(placedOn0), st.Replaced, len(replaced))
	}
	for vm := range placedOn0 {
		if replaced[vm] != 1 {
			t.Fatalf("stranded vm %d re-placed %d times, want 1", vm, replaced[vm])
		}
	}
	if st.AllExcluded != 0 || st.BounceDead != 0 {
		t.Fatalf("work lost at cluster level: %+v", st)
	}
	if rep := audit.Run(e.Tracer().Events(), audit.Options{}); !rep.Ok() {
		t.Fatalf("placer audit violations:\n%s", rep.String())
	}
	if !crash.Settled() {
		t.Fatal("crashed member still hosts startups")
	}
	var completed uint64
	for i, nd := range nodes {
		if !nd.Settled() {
			t.Fatalf("member %d not settled", i+1)
		}
		completed += nd.Mgr.Completed
	}
	if completed != vms {
		t.Fatalf("completed %d, want %d", completed, vms)
	}
	for vm := 1; vm <= vms; vm++ {
		owners := 0
		for _, nd := range nodes {
			if r := nd.Request(vm); r != nil && r.State() == cluster.ReqCompleted {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("vm %d completed on %d members, want 1", vm, owners)
		}
	}
}

// TestFailoverDeterministicAcrossWorkers checks that redistribution
// replays identically whatever the worker count: placer stats, placer
// trace and every surviving member's final state.
func TestFailoverDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		_, nodes, e, st := failoverFleet(4, 12, workers)
		out := fmt.Sprintf("%+v\n%v\n", st, e.Tracer().Events())
		for _, nd := range nodes {
			out += nd.TC.Describe()
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != want {
			t.Fatalf("failover output differs between 1 and %d workers", workers)
		}
	}
}
