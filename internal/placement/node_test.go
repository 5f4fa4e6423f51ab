package placement

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// buildNode assembles one placed-mode fleet member: a Tai Chi node with
// the overload ladder armed (the pressure signal source) and a manager
// in placed mode.
func buildNode(seed int64) *ClusterNode {
	tc := core.NewDefault(seed)
	tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
	cfg := cluster.DefaultConfig(1)
	cfg.VMLifetime = 0
	cfg.Placement = cluster.DefaultPlacementPolicy()
	mgr := cluster.NewManager(tc, cfg)
	mgr.Start()
	return NewClusterNode(tc, mgr)
}

// TestClusterNodeEndToEnd places VMs over two real nodes and checks the
// full loop: every startup completes, residency matches the engine's
// bookkeeping, and the cluster trace audits clean.
func TestClusterNodeEndToEnd(t *testing.T) {
	nodes := []*ClusterNode{
		buildNode(fleet.MemberSeed(42, 0)),
		buildNode(fleet.MemberSeed(42, 1)),
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicySpread
	cfg.VMs = 6
	cfg.ArrivalRate = 40
	cfg.ScanEvery = 100 * sim.Millisecond
	cfg.MaxScans = 100
	e := NewEngine(42, cfg, []Member{nodes[0], nodes[1]})
	st := e.Run()

	if st.Placed != 6 {
		t.Fatalf("placed %d of 6", st.Placed)
	}
	var completed, resident uint64
	for _, n := range nodes {
		completed += n.Mgr.Completed
		resident += uint64(n.Mgr.ResidentVMs())
	}
	if completed != 6 {
		t.Fatalf("completed %d of 6 startups", completed)
	}
	if resident != 6 {
		t.Fatalf("resident VMs across fleet = %d, want 6", resident)
	}
	for vm := 1; vm <= 6; vm++ {
		if e.Resident(vm) < 0 {
			t.Fatalf("vm %d resident nowhere", vm)
		}
		// The startup request lives on the origin node even if the VM
		// later migrated, so search the fleet.
		var req *cluster.Request
		for _, n := range nodes {
			if r := n.Request(vm); r != nil {
				req = r
			}
		}
		if req == nil || req.State() != cluster.ReqCompleted {
			t.Fatalf("vm %d: startup request not completed", vm)
		}
	}
	rep := audit.Run(e.Tracer().Events(), audit.Options{})
	if !rep.Ok() {
		t.Fatalf("cluster audit violations:\n%s", rep.String())
	}
	// Per-node traces must audit clean too — placed-mode submissions run
	// the ordinary request lifecycle the node auditor replays.
	for i, n := range nodes {
		nrep := audit.Run(n.TC.Node.Tracer.Events(), audit.Options{})
		if !nrep.Ok() {
			t.Fatalf("node %d audit violations:\n%s", i, nrep.String())
		}
	}
}

// TestClusterNodeDeterminism replays the end-to-end run at two worker
// counts and requires byte-identical node state and cluster traces.
func TestClusterNodeDeterminism(t *testing.T) {
	run := func(workers int) (string, int) {
		nodes := []*ClusterNode{
			buildNode(fleet.MemberSeed(7, 0)),
			buildNode(fleet.MemberSeed(7, 1)),
		}
		cfg := DefaultConfig()
		cfg.VMs = 5
		cfg.ArrivalRate = 40
		cfg.ScanEvery = 100 * sim.Millisecond
		cfg.Workers = workers
		e := NewEngine(7, cfg, []Member{nodes[0], nodes[1]})
		e.Run()
		out := nodes[0].TC.Describe() + nodes[1].TC.Describe()
		return out, len(e.Tracer().Events())
	}
	d1, t1 := run(1)
	d8, t8 := run(8)
	if d1 != d8 {
		t.Fatal("node state differs between 1 and 8 workers")
	}
	if t1 != t8 {
		t.Fatalf("cluster trace length differs: %d vs %d", t1, t8)
	}
}

// buildFaultedNode is buildNode under fault injection with the recovery
// ladder armed: the member shape of taichi-sim -place -faults -recover.
func buildFaultedNode(seed int64, spec faults.Spec) (*ClusterNode, *faults.Injector) {
	tc := core.NewDefault(seed)
	inj := faults.NewInjector(spec)
	inj.Attach(tc)
	tc.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
	tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
	cfg := cluster.DefaultConfig(1)
	cfg.VMLifetime = 0
	cfg.Retry = cluster.DefaultRetryPolicy()
	cfg.Placement = cluster.DefaultPlacementPolicy()
	cfg.WrapCP = inj.WrapCP
	mgr := cluster.NewManager(tc, cfg)
	mgr.Start()
	return NewClusterNode(tc, mgr), inj
}

// TestFaultedFleetAccountsEveryVM runs a placed fleet under fault
// injection with recovery armed. Startups that dead-letter on a faulted
// member bounce back through the placer, so every VM must end completed
// on some member or dead at cluster level (all-excluded or
// bounce-budget), every member must settle, every trace must audit
// clean, and the run must replay identically at 1 and 2 workers. The
// default spec is absorbed by retries; the harsh one (taichi-sim's
// documented example) forces bounces.
func TestFaultedFleetAccountsEveryVM(t *testing.T) {
	harsh, err := faults.ParseSpec("exit-stall=0.2,cp-crash=0.05,nack=0.2,coord-timeout=0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		spec   faults.Spec
		bounce bool
	}{
		{"default", faults.DefaultSpec(), false},
		{"harsh", harsh, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st1, tr1 := runFaultedFleet(t, tc.spec, 1)
			st2, tr2 := runFaultedFleet(t, tc.spec, 2)
			if st1 != st2 {
				t.Fatalf("stats differ between 1 and 2 workers:\n%+v\n%+v", st1, st2)
			}
			if tr1 != tr2 {
				t.Fatal("placer trace differs between 1 and 2 workers")
			}
			if tc.bounce && st1.Replaced+st1.BounceDead == 0 {
				t.Fatalf("no startup bounced through the placer: %+v", st1)
			}
		})
	}
}

// runFaultedFleet runs 4 faulted members under 16 VM arrivals, checks
// the per-run invariants, and returns the stats and the rendered placer
// trace for the cross-worker comparison.
func runFaultedFleet(t *testing.T, spec faults.Spec, workers int) (Stats, string) {
	t.Helper()
	const members, vms = 4, 16
	nodes := make([]*ClusterNode, members)
	ifaces := make([]Member, members)
	injs := make([]*faults.Injector, members)
	for i := range nodes {
		nodes[i], injs[i] = buildFaultedNode(fleet.MemberSeed(3, i), spec)
		ifaces[i] = nodes[i]
	}
	cfg := DefaultConfig()
	cfg.VMs = vms
	cfg.Workers = workers
	e := NewEngine(3, cfg, ifaces)
	st := e.Run()

	var completed, injected uint64
	for i, n := range nodes {
		if !n.Settled() {
			t.Fatalf("workers=%d: member %d not settled", workers, i)
		}
		completed += n.Mgr.Completed
		injected += injs[i].Counts.Total()
		var bc *controlplane.BreakerCounters
		if n.TC.Breaker != nil {
			c := n.TC.Breaker.Counters()
			bc = &c
		}
		if rep := audit.Run(n.TC.Node.Tracer.Events(), audit.Options{Breaker: bc}); !rep.Ok() {
			t.Fatalf("workers=%d: member %d audit violations:\n%s", workers, i, rep.String())
		}
	}
	if injected == 0 {
		t.Fatalf("workers=%d: no fault was injected", workers)
	}
	if rep := audit.Run(e.Tracer().Events(), audit.Options{}); !rep.Ok() {
		t.Fatalf("workers=%d: placer audit violations:\n%s", workers, rep.String())
	}
	for vm := 1; vm <= vms; vm++ {
		done := false
		for _, n := range nodes {
			if r := n.Request(vm); r != nil && r.State() == cluster.ReqCompleted {
				done = true
			}
		}
		_, dead := e.ClusterDead()[vm]
		if done == dead {
			t.Fatalf("workers=%d: vm %d completed=%v cluster-dead=%v, want exactly one", workers, vm, done, dead)
		}
	}
	if got := int(completed) + st.AllExcluded + st.BounceDead; got != vms {
		t.Fatalf("workers=%d: completed %d + all-excluded %d + bounce-dead %d = %d, want %d",
			workers, completed, st.AllExcluded, st.BounceDead, got, vms)
	}
	return st, fmt.Sprint(e.Tracer().Events())
}
