package controller

import (
	"time"

	"lazyctrl/internal/metrics"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// foldCap is the quiet answer for "indefinitely foldable" tasks; the
// simulator clamps to its own span cap.
const foldCap = 1 << 20

// wakeTask re-materializes a fold task if one is registered.
func wakeTask(t netsim.ElidableTask) {
	if t != nil {
		t.Wake()
	}
}

// WakeFoldTasks re-materializes the controller's folded timers; the
// harness calls it on every underlay fault change.
func (c *Controller) WakeFoldTasks() {
	wakeTask(c.kaTask)
	wakeTask(c.expireTask)
}

// KACreditedThrough returns the boundary through which the controller's
// keep-alive rounds were settled analytically (zero when never folded).
// Edge switches read it (via edge.FoldHooks.CtrlKACreditedThrough) so
// the degraded-mode check treats the folded broadcast as heard.
func (c *Controller) KACreditedThrough() time.Duration {
	if c.kaTask == nil {
		return 0
	}
	return c.kaTask.CreditedThrough()
}

// kaQuiet proves upcoming keep-alive rounds creditable: the underlay
// is fault-free (every probe reaches its switch and every ack returns),
// no switch is marked dead (dead switches are probed on a different
// cadence), and no switch has open evidence whose diagnosis window a
// folded check round would have closed.
func (c *Controller) kaQuiet() int {
	if !c.cfg.FoldGate() {
		return 0
	}
	// Replication and the control fold do not compose: folding the
	// keep-alive task would also fold the master→standby heartbeat, and
	// the standby (a separate node with its own clock) would read the
	// silence as a dead primary and take over. Replicated runs keep
	// every keep-alive round real.
	if c.cfg.Peer != 0 {
		return 0
	}
	for _, rec := range c.sw {
		if rec.dead || rec.suspected {
			return 0
		}
	}
	return foldCap
}

// kaCredit settles folded keep-alive rounds: the probe sequence
// advances and the per-round wire bytes — one probe per switch, one
// ack back — are credited. Switch-side freshness is recovered lazily
// through KACreditedThrough; ack freshness here through the same
// boundary in checkFailures.
func (c *Controller) kaCredit(rounds int) {
	c.kaSeq += uint64(rounds)
	if c.cfg.FoldMeter == nil {
		return
	}
	n := uint64(rounds)
	ka := &openflow.KeepAlive{From: c.addr, Seq: c.kaSeq, Generation: c.generation}
	ack := &openflow.KeepAlive{Seq: c.kaSeq}
	for _, sw := range c.cfg.Switches {
		c.cfg.FoldMeter(c.addr, sw, ka, n)
		ack.From = sw
		c.cfg.FoldMeter(sw, c.addr, ack, n)
	}
}

// expireQuiet proves upcoming ARP-expiry rounds no-ops: no flow is
// pending resolution. A new pending flow wakes the task at its append
// site, so the first post-fold check runs within one timeout. Without
// a FoldGate the task never folds.
func (c *Controller) expireQuiet() int {
	if c.cfg.FoldGate == nil || !c.cfg.FoldGate() {
		return 0
	}
	if c.state.pendingLen() > 0 {
		return 0
	}
	return foldCap
}

// CreditFoldedStateReport accounts one folded empty designated-switch
// report at its round time: the same request-class bucket and counter
// a real empty report would have fed, so workload series stay
// bucket-exact across the fold.
func (c *Controller) CreditFoldedStateReport(at time.Duration) {
	if c.cfg.Recorder != nil {
		c.cfg.Recorder.CountRequest(metrics.ReqStateReport, at, 1)
	}
	c.stats.StateReports++
}
