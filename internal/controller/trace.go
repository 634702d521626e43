package controller

import (
	"lazyctrl/internal/model"
	"lazyctrl/internal/telemetry"
)

// This file holds the controller's telemetry-span plumbing. Spans are
// only ever created in ordered code — the apply phase and the periodic
// duties, never ProcessBurst's concurrent decide workers — so span IDs
// come out in a deterministic sequence (see telemetry.Tracer).
//
// The regroup trace covers one push round: a "regroup" root opened by
// the trigger, a "regroup.mlkp" child around the grouping update, and
// one push span per destination the round actually shipped to. Push
// spans that await a ConfigAck stay open in the destination's record
// (switchRecord.pushSpan) until the ack arrives (supervision retries
// extend the same span), so their duration is the paper's push→ack
// convergence time; preload-only pushes and skipped destinations are
// recorded as instant spans.

// tracePushSkip records a destination a push round sent nothing to.
func (c *Controller) tracePushSkip(dest model.SwitchID) {
	if tr := c.cfg.Tracer; tr != nil && c.regroupCtx.Sampled() {
		now := c.env.Now()
		tr.Emit(c.regroupCtx, "regroup.skip", now, now,
			telemetry.Attr{Key: "sw", Val: int64(dest)})
	}
}

// tracePush records one destination's share of a push round. awaitAck
// marks pushes whose GroupConfig is under supervision: their span stays
// open until the destination's ConfigAck (or supervision gives up).
func (c *Controller) tracePush(dest model.SwitchID, awaitAck bool, nFull, nDelta int) {
	tr := c.cfg.Tracer
	if tr == nil || !c.regroupCtx.Sampled() {
		return
	}
	if !awaitAck {
		now := c.env.Now()
		tr.Emit(c.regroupCtx, "regroup.push", now, now,
			telemetry.Attr{Key: "sw", Val: int64(dest)},
			telemetry.Attr{Key: "full", Val: int64(nFull)},
			telemetry.Attr{Key: "delta", Val: int64(nDelta)})
		return
	}
	// A newer round superseding an unacked push closes the old span;
	// its duration then measures how long the stale config was in
	// flight, not a lie about convergence.
	rec := c.sw[dest]
	if old := rec.pushSpan; old != nil {
		old.Attr("superseded", 1).End()
	}
	rec.pushSpan = tr.StartSpan(c.regroupCtx, "regroup.push").
		Attr("sw", int64(dest)).
		Attr("full", int64(nFull)).
		Attr("delta", int64(nDelta))
}

// traceCtrl records the controller's ordered apply step of one sampled
// escalation as an instant "pktin.ctrl" span carrying the decision.
func (c *Controller) traceCtrl(ctx telemetry.SpanContext, kind decisionKind) {
	if tr := c.cfg.Tracer; tr != nil && ctx.Sampled() {
		now := c.env.Now()
		tr.Emit(ctx, "pktin.ctrl", now, now,
			telemetry.Attr{Key: "decision", Val: int64(kind)})
	}
}
