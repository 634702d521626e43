// Package edge implements the LazyCtrl edge switch (§IV-A): the fast
// path (flow table → L-FIB → Bloom-filter G-FIB → encapsulation,
// exactly the routine of Fig. 5) and the slow-path modules of the
// modified Open vSwitch — Ctrl-IF, state advertisement, FIB
// maintenance, and state reporting (active on the designated switch).
package edge

import (
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// flowRule is an installed flow-table entry.
type flowRule struct {
	actions     []openflow.Action
	idleTimeout time.Duration
	lastHit     time.Duration
}

// flowKey is the one rule shape the controller installs (§IV-B): exact
// (dstMAC, VLAN) with everything else wildcarded.
type flowKey struct {
	dst  model.MAC
	vlan model.VLAN
}

// flowTable holds a switch's controller-installed inter-group rules,
// at most one per (dstMAC, VLAN). Priorities, hard timeouts, wildcard
// matches and per-rule counters are not modelled: no controller sends
// or reads them. Rules are stored by value, so installing one over an
// existing key allocates nothing.
type flowTable struct {
	rules map[flowKey]flowRule
}

func newFlowTable() *flowTable {
	return &flowTable{rules: make(map[flowKey]flowRule)}
}

// install adds or replaces the rule for m. A match of any other shape
// than openflow.ExactDst is ignored.
func (t *flowTable) install(m openflow.Match, r flowRule) {
	if m == openflow.ExactDst(m.DstMAC, m.VLAN) {
		t.rules[flowKey{dst: m.DstMAC, vlan: m.VLAN}] = r
	}
}

// lookup returns the actions of the live rule for p's destination,
// evicting the rule if it has idled out, and refreshes its idle clock.
func (t *flowTable) lookup(p *model.Packet, now time.Duration) ([]openflow.Action, bool) {
	key := flowKey{dst: p.DstMAC, vlan: p.VLAN}
	r, ok := t.rules[key]
	if !ok {
		return nil, false
	}
	if r.idleTimeout > 0 && now-r.lastHit > r.idleTimeout {
		delete(t.rules, key)
		return nil, false
	}
	r.lastHit = now
	t.rules[key] = r
	return r.actions, true
}
