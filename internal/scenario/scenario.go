// Package scenario builds one simulated node from a Spec: the host,
// the fault injector, the recovery and overload ladders, the background
// load and the VM-startup manager, wired in one fixed order (see New).
// Every binary and experiment that runs a stock node builds it here.
package scenario

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Mode names the node flavour.
type Mode string

// The node flavours: Tai Chi and the §6 baselines.
const (
	ModeTaiChi Mode = "taichi"
	ModeStatic Mode = "static"
	ModeType1  Mode = "type1"
	ModeType2  Mode = "type2"
	ModeNaive  Mode = "naive"
)

// Spec is everything that varies between the nodes this repository
// runs. The zero value of each optional field leaves its layer off.
type Spec struct {
	// Seed derives every RNG stream of the node.
	Seed int64
	// Mode picks the host flavour.
	Mode Mode
	// Faults is the injector's profile; zero injects nothing. Only Tai
	// Chi modes (taichi, type1, naive) accept a non-zero spec.
	Faults faults.Spec
	// Recover arms the scheduler's recovery ladder under the default
	// core.RecoveryPolicy (Tai Chi modes only).
	Recover bool
	// Overload arms the scheduler's brownout ladder under the default
	// core.OverloadPolicy (Tai Chi modes only).
	Overload bool
	// Background, when non-nil, starts this data-plane background load.
	Background *workload.BackgroundConfig
	// VMs, when non-nil, is the VM-startup manager's configuration. New
	// sets its WrapCP, OverloadLevel and Healthy hooks; each is consulted
	// only by the injector, the admission gate or the requeue, so setting
	// it where those are off changes nothing.
	VMs *cluster.Config
}

// Node is one wired node. TC and Inj are nil on the static and type2
// baselines, BG and Mgr unless the Spec set Background and VMs; Mgr is
// constructed but not started.
type Node struct {
	Node *platform.Node       // the simulated platform
	TC   *core.TaiChi         // the Tai Chi host
	Host cluster.Host         // the node as the manager drives it
	Inj  *faults.Injector     // the fault injector, zero spec or not
	BG   *workload.Background // the started background load
	Mgr  *cluster.Manager     // the VM-startup manager
}

// New builds the node s describes, in the order every caller relies on:
// host; fault injector, attached on every Tai Chi host (a zero spec
// attaches nothing); recovery ladder; overload ladder; background load,
// started; manager, constructed with its WrapCP, OverloadLevel and
// Healthy hooks on this node. New never starts the manager, so callers
// schedule what must precede Mgr.Start first. It rejects unknown modes
// and faults, recovery or overload without a Tai Chi scheduler, naming
// the setting by its taichi-sim flag.
func New(s Spec) (*Node, error) {
	n := &Node{}
	switch s.Mode {
	case ModeTaiChi:
		n.TC = core.NewDefault(s.Seed)
	case ModeType1:
		n.TC = baseline.NewType1(s.Seed)
	case ModeNaive:
		n.TC = baseline.NewNaive(s.Seed)
	case ModeStatic:
		b := baseline.NewStaticDefault(s.Seed)
		n.Node, n.Host = b.Node, b
	case ModeType2:
		b := baseline.NewType2(s.Seed)
		n.Node, n.Host = b.Node, b
	default:
		return nil, fmt.Errorf("unknown mode %q", s.Mode)
	}

	if n.TC == nil {
		// Fault injection and both ladders ride the Tai Chi scheduler's
		// defense hooks.
		for _, c := range []struct {
			on   bool
			flag string
		}{{!s.Faults.Zero(), "-faults"}, {s.Recover, "-recover"}, {s.Overload, "-overload"}} {
			if c.on {
				return nil, fmt.Errorf("%s requires a Tai Chi scheduler mode (taichi, type1, naive), not %q", c.flag, s.Mode)
			}
		}
	} else {
		n.Node, n.Host = n.TC.Node, n.TC
		n.Inj = faults.NewInjector(s.Faults)
		n.Inj.Attach(n.TC)
		if s.Recover {
			n.TC.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
		}
		if s.Overload {
			n.TC.Sched.EnableOverload(core.DefaultOverloadPolicy())
		}
	}

	if s.Background != nil {
		n.BG = workload.NewBackground(n.Node, *s.Background)
		n.BG.Start()
	}

	if s.VMs != nil {
		cfg := *s.VMs
		cfg.WrapCP = n.WrapCP
		cfg.Healthy = n.Healthy
		cfg.OverloadLevel = n.OverloadLevel
		n.Mgr = cluster.NewManager(n.Host, cfg)
	}
	return n, nil
}

// Must returns n, panicking on err: for callers whose Spec is a literal
// that cannot fail.
func Must(n *Node, err error) *Node {
	if err != nil {
		panic(err)
	}
	return n
}

// RunUntil advances the node in chunk steps until done holds after a
// step, at most steps times: a runaway backstop, not a horizon.
func (n *Node) RunUntil(chunk sim.Duration, steps int, done func() bool) {
	for i := 0; i < steps; i++ {
		n.Node.Run(n.Node.Now().Add(chunk))
		if done() {
			return
		}
	}
}

// WrapCP wraps a CP program with the injector's crash and hang classes;
// it returns prog unchanged on a host without an injector or with those
// classes unarmed.
func (n *Node) WrapCP(prog kernel.Program) kernel.Program {
	if n.Inj == nil {
		return prog
	}
	return n.Inj.WrapCP(prog)
}

// OverloadLevel is the overload-ladder rung (core.OverloadState
// ordinal) the admission gate reads; 0 on a host without Tai Chi
// internals.
func (n *Node) OverloadLevel() int {
	if n.TC == nil {
		return 0
	}
	return int(n.TC.Sched.OverloadState())
}

// Healthy reports whether the node can take its own dead letters back:
// defense ladder above static fallback and the CP→DP breaker not open.
// A host without Tai Chi internals has neither signal and counts as
// healthy.
func (n *Node) Healthy() bool {
	if n.TC == nil {
		return true
	}
	if n.TC.Sched.DefenseMode() == core.ModeStatic {
		return false
	}
	return n.TC.Breaker == nil || n.TC.Breaker.State() != controlplane.BreakerOpen
}

// Audit replays the node's trace through the runtime invariant auditor,
// with the breaker counter snapshot when one is installed and the
// tracer's dropped-event count.
func (n *Node) Audit() *audit.Report {
	var bc *controlplane.BreakerCounters
	if n.TC != nil && n.TC.Breaker != nil {
		c := n.TC.Breaker.Counters()
		bc = &c
	}
	return audit.Run(n.Node.Tracer.Events(), audit.Options{
		Breaker:       bc,
		DroppedEvents: n.Node.Tracer.Dropped(),
	})
}
