package logicsim

import (
	"context"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/parallel"
)

// FaultSimIncrementalWorkers runs serial-fault, parallel-pattern stuck-at
// fault simulation over the still-undetected faults of flist: the good
// circuit is simulated once over the vector sequence, then each fault with
// detected[i] unset is injected in turn and simulated until its outputs
// diverge from the good circuit (fault dropping) or the vectors are
// exhausted. vectors[t] holds one 64-bit word per primary input; all 64
// pattern lanes are compared, so a caller can pack 64 independent test
// sequences into one campaign (lane l of every word forms sequence l).
//
// detected is updated in place and the number of newly detected faults is
// returned; when detectCycle is non-nil, detectCycle[i] receives
// cycleBase plus the cycle of first detection. The fault list is
// partitioned across up to `workers` goroutines (workers < 1 means one
// per CPU), each with its own private Sim; every fault touches only its
// own slots, so the update is race-free and the outcome is bit-identical
// at every worker count.
//
// The per-fault inner loop is allocation-free: the golden rows are
// computed once by Run, each worker's Sim reuses its output buffer across
// Step calls, and a fault's outputs are compared against the shared golden
// row in place — nothing is copied per fault.
func FaultSimIncrementalWorkers(c *gates.Circuit, flist []fault.Fault, detected []bool, detectCycle []int, vectors [][]uint64, cycleBase, workers int) (int, error) {
	return exec.Guard1("logicsim.faultsim", -1, func() (int, error) {
		return faultSimIncrementalWorkers(c, flist, detected, detectCycle, vectors, cycleBase, workers)
	})
}

func faultSimIncrementalWorkers(c *gates.Circuit, flist []fault.Fault, detected []bool, detectCycle []int, vectors [][]uint64, cycleBase, workers int) (int, error) {
	good, err := New(c)
	if err != nil {
		return 0, err
	}
	golden := good.Run(vectors)
	newlyOf := make([]bool, len(flist))
	err = parallel.ForEachWorkerCtx(context.TODO(), workers, len(flist),
		func() (*Sim, error) { return New(c) },
		func(bad *Sim, i int) error {
			if detected[i] {
				return nil
			}
			bad.Fault = &flist[i]
			bad.Reset()
			for t, v := range vectors {
				po := bad.Step(v)
				diff := false
				for k, w := range po {
					if w != golden[t][k] {
						diff = true
						break
					}
				}
				if diff {
					detected[i] = true
					if detectCycle != nil {
						detectCycle[i] = cycleBase + t
					}
					newlyOf[i] = true
					break
				}
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	newly := 0
	for _, n := range newlyOf {
		if n {
			newly++
		}
	}
	return newly, nil
}
