package main

import (
	"testing"

	"repro/internal/sim"
)

// TestFaultedCPWorkloadWrapsPrograms: with -faults the default cp
// workload's monitors and churn tasks run under the injector's CP crash
// and hang classes, so a faulted run records some of each class's
// injections.
func TestFaultedCPWorkloadWrapsPrograms(t *testing.T) {
	n := runNode("taichi", "cp", 7, 5*sim.Second, false, true, true)
	crash := n.Inj.Counts.Counter("cp-crash").Value()
	hang := n.Inj.Counts.Counter("cp-hang").Value()
	if crash+hang == 0 {
		t.Fatalf("faulted cp run injected no CP faults: %s", n.Inj.Counts)
	}
	t.Logf("cp-crash=%d cp-hang=%d", crash, hang)
}
