package controller

import (
	"time"

	"lazyctrl/internal/model"
)

// hotState is the controller's per-MAC hot state: the learning-mode
// location table and the pending-flow table. It has one owner, the
// controller's goroutine, and takes no locks: ProcessBurst's decide
// workers only read learned, and nothing writes while they run.
type hotState struct {
	learned map[model.MAC]model.SwitchID
	pending map[model.MAC][]pendingFlow
}

func newHotState() hotState {
	return hotState{
		learned: make(map[model.MAC]model.SwitchID),
		pending: make(map[model.MAC][]pendingFlow),
	}
}

// takePending removes and returns the flows pending on a MAC. The
// returned slice is owned by the caller: the table never touches its
// backing array again.
func (s *hotState) takePending(mac model.MAC) []pendingFlow {
	flows := s.pending[mac]
	delete(s.pending, mac)
	return flows
}

// pendingLen returns the total number of queued flows.
func (s *hotState) pendingLen() int {
	n := 0
	for _, flows := range s.pending {
		n += len(flows)
	}
	return n
}

// dropPending removes every queued flow drop selects and returns how
// many it removed. A MAC's surviving flows are copied into a fresh
// slice, never compacted in place with flows[:0], so a backing array a
// caller may still hold is never overwritten.
func (s *hotState) dropPending(drop func(pendingFlow) bool) int {
	removed := 0
	for mac, flows := range s.pending {
		n := 0
		for _, f := range flows {
			if drop(f) {
				n++
			}
		}
		switch {
		case n == 0:
			continue
		case n == len(flows):
			delete(s.pending, mac)
		default:
			keep := make([]pendingFlow, 0, len(flows)-n)
			for _, f := range flows {
				if !drop(f) {
					keep = append(keep, f)
				}
			}
			s.pending[mac] = keep
		}
		removed += n
	}
	return removed
}

// expirePending drops queued flows older than timeout and returns how
// many were dropped.
func (s *hotState) expirePending(now, timeout time.Duration) int {
	return s.dropPending(func(f pendingFlow) bool { return now-f.since >= timeout })
}

// evictSwitch drops every learned binding located at sw and every
// pending flow whose ingress is sw (the switch was diagnosed dead:
// installing rules on it or forwarding flows to it is a black hole).
// It returns the number of learned entries and pending flows removed.
func (s *hotState) evictSwitch(sw model.SwitchID) (learned, pending int) {
	for mac, loc := range s.learned {
		if loc == sw {
			delete(s.learned, mac)
			learned++
		}
	}
	return learned, s.dropPending(func(f pendingFlow) bool { return f.ingress == sw })
}
