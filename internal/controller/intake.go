package controller

import (
	"sync"

	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// ProcessBurst handles a packet-in storm as one burst: the shard-local
// decide phase (source learning, destination location, forwarding
// classification) fans out across one worker per state shard, then the
// apply phase (workload accounting, intensity updates, message
// emission) runs sequentially in input order. Per-shard intake means a
// worker owns every event whose destination MAC hashes to its shard,
// so per-destination decisions keep their input order; cross-shard
// source learns go through the stripe locks.
//
// The ordered apply phase is the determinism anchor: all merging into
// unsharded state (queueing model, intensity matrix, stats, message
// sends) happens in input order regardless of the shard count, so a
// burst over a stable workload — every source MAC attached to one
// switch, the storm's defining shape — leaves C-LIB, learned, and
// pending state identical to the single-shard (fully sequential) run.
// A source that migrates between switches mid-burst resolves
// last-write-wins, and a destination first introduced by another
// packet of the same burst may classify as known or unknown depending
// on worker interleaving — exactly as racing packets into any
// multi-threaded controller would.
//
// The fan-out is chosen by entry point, not by a threshold: only this
// exported method takes it (eval.Storm and the packetin-storm workload
// call it with bursts of thousands, one at a time — the caller must
// deliver nothing else while a burst is in flight). A burst arriving on
// the wire — an edge micro-batch's PacketInBurst — goes through
// HandleMessage, which decides it in input order, so the DES emulations
// stay seed-identical at any shard count.
func (c *Controller) ProcessBurst(batch []openflow.PacketIn) {
	c.burst(batch, c.state.count())
}

// burst decides a batch with the given number of workers (one: in
// input order on the caller's goroutine) and applies it in input order.
func (c *Controller) burst(batch []openflow.PacketIn, workers int) {
	n := len(batch)
	if n == 0 {
		return
	}
	decisions := make([]pinDecision, n)
	if workers == 1 || n == 1 {
		for i := range batch {
			decisions[i] = c.decide(&batch[i])
		}
	} else {
		// Route each event to the worker owning its destination shard.
		// Workers scan the shared owner index instead of draining
		// channels: the scan is branch-predictable and keeps per-shard
		// FIFO order equal to input order by construction.
		owner := make([]uint16, n)
		for i := range batch {
			owner[i] = uint16(c.state.shardIndex(batch[i].Packet.DstMAC))
		}
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w uint16) {
				defer wg.Done()
				for i := range batch {
					if owner[i] == w {
						decisions[i] = c.decide(&batch[i])
					}
				}
			}(uint16(w))
		}
		wg.Wait()
	}
	// The ordered apply phase resolves ARP relay targets through the
	// per-burst memo: one designated-switch resolution per (VLAN,
	// grouping version) instead of one per pending flow.
	c.arpCacheOn = true
	c.arpCacheVer = c.groupingVersion
	for i := range batch {
		c.apply(&batch[i], decisions[i])
	}
	c.arpCacheOn = false
	clear(c.arpCache)
}

// StateShardCount reports the number of lock stripes backing the
// controller's per-MAC hot state.
func (c *Controller) StateShardCount() int { return c.state.count() }

// LearnedLocations returns a copy of the learning-mode location table
// (introspection and differential testing).
func (c *Controller) LearnedLocations() map[model.MAC]model.SwitchID {
	return c.state.snapshotLearned()
}

// PendingFlows reports how many flows are queued awaiting location
// resolution.
func (c *Controller) PendingFlows() int { return c.state.pendingLen() }
