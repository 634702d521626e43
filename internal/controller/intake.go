package controller

import (
	"sync"

	"lazyctrl/internal/openflow"
)

// ProcessBurst handles a packet-in storm as one burst: every item is
// decided against the tables as they stood when the burst arrived,
// split into workers contiguous chunks decided in parallel, and the
// decisions are then applied sequentially in input order. decide only
// reads; every write — source learning, workload accounting, intensity
// updates, pending flows, message emission — happens in the ordered
// apply phase. The outcome therefore does not depend on the worker
// count: a destination first introduced by another packet of the same
// burst is unknown to every decision of that burst, at 1 worker or 8.
//
// The fan-out is chosen by entry point, not by a threshold: only this
// exported method takes it (eval.Storm and the packetin-storm workload
// call it with bursts of thousands, one at a time — the caller must
// deliver nothing else while a burst is in flight). A burst arriving on
// the wire — an edge micro-batch's PacketInBurst — goes through
// HandleMessage, which handles it item by item like the single
// PacketIns it stands for.
func (c *Controller) ProcessBurst(batch []openflow.PacketIn, workers int) {
	n := len(batch)
	if n == 0 {
		return
	}
	decisions := make([]pinDecision, n)
	workers = max(workers, 1)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				decisions[i] = c.decide(&batch[i])
			}
		}()
	}
	wg.Wait()
	for i := range batch {
		// Items carry no sender: each is admitted by the PacketIn row
		// as if its ingress had sent it.
		if c.admit(batch[i].Switch, &batch[i]) {
			c.apply(&batch[i], decisions[i])
		}
	}
}
