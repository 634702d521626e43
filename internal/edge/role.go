package edge

import (
	"time"

	"lazyctrl/internal/fib"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// State that is reset together is one value, and state that belongs to
// a role exists only while the role is held: New, handleGroupConfig and
// Reboot build the values below through their constructors only.

// designatedRole is what a switch holds because it is its group's
// designated switch. The role is reassignable (§III-D1, §III-E3), so
// its state is built when a GroupConfig grants it (or moves a holder's
// membership) and dropped when a config takes it away or the switch
// reboots: a re-promoted switch starts from what its members tell it,
// never from what an earlier tenure left behind.
type designatedRole struct {
	// members holds a record per member whose L-FIB snapshot the switch
	// aggregates; none means unknown (never advertised, or evicted).
	members map[model.SwitchID]*memberRecord
	// evicted marks members whose record was dropped on peer evidence;
	// a false alarm is unwound by re-sending the member its group view
	// when its keep-alives resume, which makes it bootstrap a full
	// advertisement (see evictSuspect / handleKeepAlive).
	evicted map[model.SwitchID]bool
	// pairs accumulates the members' pair statistics between reports.
	pairs map[model.SwitchPair]uint32
	// restart makes the next dissemination rebuild every member's
	// filter, current or not (see restartDeltaTracking).
	restart bool
	// empty is the report of a round with nothing to carry (see
	// emptyReport).
	empty *openflow.StateReport
	// Control-fold handles of the role's two periodic duties.
	dissemTask netsim.ElidableTask
	reportTask netsim.ElidableTask
}

// memberRecord is one member's state at its designated switch.
type memberRecord struct {
	// snapshot is the member's latest full L-FIB (increments merged in)
	// at the L-FIB version it advertised.
	snapshot []openflow.LFIBEntry
	version  uint64
	// filter is the member's filter as last disseminated, stamped with
	// the version it was built at: the dissemination gate (a filter
	// behind version is stale, see dissemStale), the diff base for
	// word-level deltas and the full-state source for NACK-driven
	// resyncs.
	filter fib.PeerFilter
	// reported is one past the version last folded into a controller
	// report; zero means none since the record was built or delta
	// tracking restarted (see reportStale).
	reported uint64
	// pending accumulates the increments received since the last
	// controller report, so the state link forwards increments instead
	// of re-snapshotting; needFull marks a member whose next report
	// must be a full snapshot (it advertised one).
	pending  []openflow.LFIBEntry
	needFull bool
}

func newDesignatedRole() *designatedRole {
	return &designatedRole{
		members: make(map[model.SwitchID]*memberRecord),
		evicted: make(map[model.SwitchID]bool),
		pairs:   make(map[model.SwitchPair]uint32),
	}
}

// restartDeltaTracking makes the next dissemination rebuild every
// member's filter and the next report carry every member's leg: the
// re-send degrades to zero-word deltas where the diff base survived.
func (r *designatedRole) restartDeltaTracking() {
	r.restart = true
	for _, rec := range r.members {
		rec.reported = 0
	}
}

// dissemStale reports whether a member's filter must be rebuilt and
// disseminated this round: it was never built, it lags the member's
// snapshot, or delta tracking restarted.
func (r *designatedRole) dissemStale(rec *memberRecord) bool {
	v, built := rec.filter.Version()
	return r.restart || !built || v != rec.version
}

// reportStale reports whether a member's snapshot moved since it was
// last folded into a controller report.
func (r *designatedRole) reportStale(rec *memberRecord) bool {
	return rec.reported != rec.version+1
}

// wake re-materializes the role's folded duties after a change to what
// their quiet proofs read. Nil-safe; a no-op when nothing is folded.
func (r *designatedRole) wake() {
	if r != nil {
		wakeTask(r.dissemTask)
		wakeTask(r.reportTask)
	}
}

// ringNeighbor is the keep-alive bookkeeping for one wheel neighbor:
// when it was last heard and whether it is currently reported lost.
type ringNeighbor struct {
	lastFrom time.Duration
	reported bool
}

// newRing returns empty wheel bookkeeping: a neighbor without an entry
// gets a full grace period instead of inheriting a stale timestamp.
func newRing() map[model.SwitchID]ringNeighbor {
	return make(map[model.SwitchID]ringNeighbor, 2)
}

// advertState is the member side of state advertisement: lastVersion
// is the L-FIB version last advertised (zero: the next advertisement is
// a full bootstrap snapshot), sinceFull counts incremental
// advertisements since the last full one (bounding designated-switch
// staleness after a lost increment), idleRounds counts consecutive
// intervals with nothing to say (driving the idle beacon, see
// advertise).
type advertState struct {
	lastVersion uint64
	sinceFull   int
	idleRounds  int
}
