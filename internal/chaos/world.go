package chaos

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/fib"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// DefaultRecoveryRoundBound is the documented convergence bound, in
// dissemination/report rounds (one round = max(advertise interval,
// report interval)), within which every view must reach the fault-free
// fixpoint after the last fault is undone. Derivation
// (docs/robustness.md): the slowest repair path is a full-snapshot
// refresh that only fires every refreshEveryRounds(=10) advertisement
// rounds — idle anti-entropy for a lost bootstrap, advSinceFull for a
// lost increment chain — and up to three such cycles can stack
// (member→designated advertisement, designated→member dissemination,
// designated→controller report), plus a few rounds of slack for
// push-retry backoff and keep-alive-driven resurrection.
const DefaultRecoveryRoundBound = 35

// World wires the convergence-invariant checker to a running stack.
// The checker compares every live view against the ground truth the
// host directory defines, so it detects both missing state (a lost
// snapshot never repaired) and ghost state (a tombstoned filter
// resurrected, a dead switch's bindings lingering in the C-LIB).
type World struct {
	Controller *controller.Controller
	// Replicas lists the controller replicas of a replicated stack;
	// when set, the controller-side invariants resolve the active
	// master dynamically (and Diverged asserts exactly one replica
	// holds the role at the fixpoint). Leave empty for a
	// single-controller stack driven through Controller.
	Replicas []*controller.Controller
	Switches map[model.SwitchID]*edge.Switch
	// Hosts returns the ground-truth bindings attached to a switch
	// (the hypervisor's view — what every converged table must show).
	Hosts func(sw model.SwitchID) []openflow.LFIBEntry
	// Down reports whether a switch is currently crashed; down
	// switches are exempt from the live invariants.
	Down func(sw model.SwitchID) bool
	// Flight, when set, returns a node's flight-recorder tail (its last
	// protocol events, oldest first — telemetry.Flight.Tail). Diverged
	// appends each violating node's tail to its report, so an invariant
	// violation dumps the wire history that led up to it.
	Flight func(sw model.SwitchID) []string

	// maxSeen tracks the highest G-FIB filter version each holder ever
	// held per peer, and the highest C-LIB version per switch (keyed by
	// replica address), across Probe calls — the
	// no-stale-epoch-adoption invariant is "these never regress".
	maxSeen map[[2]model.SwitchID]uint64
	// genSeen tracks the highest cluster generation each holder (edge
	// or replica) ever observed; the failover fencing invariant is
	// "generations never regress within an incarnation" (an edge reboot
	// legitimately resets its fence, detected via the L-FIB epoch).
	genSeen map[model.SwitchID]genMark
	// emptyRef caches the empty-set filter encoding (see emptyFilter).
	emptyRef []byte
}

// genMark is one holder's generation high-water mark, tagged with the
// L-FIB incarnation epoch it was observed in (always 0 for replicas —
// controller replicas do not reboot).
type genMark struct {
	epoch uint64
	gen   uint64
}

// activeController resolves the controller whose state the invariants
// compare against: the single static controller, or — replicated — the
// unique replica holding the master role (nil while zero or several
// do; Diverged reports that separately).
func (w *World) activeController() *controller.Controller {
	if len(w.Replicas) == 0 {
		return w.Controller
	}
	var m *controller.Controller
	for _, r := range w.Replicas {
		if r.IsMaster() {
			if m != nil {
				return nil
			}
			m = r
		}
	}
	return m
}

func (w *World) down(sw model.SwitchID) bool { return w.Down != nil && w.Down(sw) }

// emptyFilter returns (and caches) the byte encoding of the empty-set
// Bloom filter at the world's geometry.
func (w *World) emptyFilter() []byte {
	if w.emptyRef == nil {
		w.emptyRef, _ = fib.FilterBytesFromWireEntries(nil, fib.DefaultFilterBits, fib.DefaultFilterHashes)
	}
	return w.emptyRef
}

func (w *World) ids() []model.SwitchID {
	out := make([]model.SwitchID, 0, len(w.Switches))
	for id := range w.Switches {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func entriesEqual(a, b []openflow.LFIBEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedEntries(in []openflow.LFIBEntry) []openflow.LFIBEntry {
	out := make([]openflow.LFIBEntry, len(in))
	copy(out, in)
	sort.Slice(out, func(i, j int) bool { return out[i].MAC.Uint64() < out[j].MAC.Uint64() })
	return out
}

// Diverged compares every live view against the fault-free fixpoint
// and returns one line per divergence (empty = converged). The
// fixpoint invariants, per live switch S with ground truth H(S):
//
//  1. S's L-FIB holds exactly H(S).
//  2. The C-LIB attributes exactly H(S) to S, at S's current L-FIB
//     version (content and version coherence).
//  3. The controller considers S alive and grouped, and S's group view
//     agrees with the controller's grouping on membership.
//  4. S's G-FIB holds exactly one filter per live, host-bearing group
//     peer, byte-identical to the filter computed from H(peer), tagged
//     with the peer's current L-FIB version — no missing filters, no
//     ghosts for dead or evicted peers, no stale content.
//
// A replicated stack (Replicas set) adds the role-handoff fixpoint:
// exactly one replica holds the master role, and every live switch
// follows that replica at its generation.
func (w *World) Diverged() []string {
	var out []string
	ctrl := w.activeController()
	if len(w.Replicas) > 0 {
		masters := 0
		for _, r := range w.Replicas {
			if r.IsMaster() {
				masters++
			}
		}
		if masters != 1 {
			out = append(out, fmt.Sprintf("controller: %d replicas hold the master role, want exactly 1", masters))
		}
	}
	for _, id := range w.ids() {
		if w.down(id) {
			continue
		}
		sw := w.Switches[id]
		want := sortedEntries(w.Hosts(id))

		if got := sortedEntries(sw.LFIB().WireEntries()); !entriesEqual(got, want) {
			out = append(out, fmt.Sprintf("S%d: L-FIB has %d entries, ground truth %d", id, len(got), len(want)))
		}
		if ctrl != nil {
			if len(w.Replicas) > 0 {
				if m := sw.Master(); m != ctrl.NodeID() {
					out = append(out, fmt.Sprintf("S%d: follows controller %d, active master is %d", id, m, ctrl.NodeID()))
				}
				if g := sw.CtrlGeneration(); g != ctrl.Generation() {
					out = append(out, fmt.Sprintf("S%d: at generation %d, active master at %d", id, g, ctrl.Generation()))
				}
			}
			if got := ctrl.CLIB().EntriesOn(id); !entriesEqual(sortedEntries(got), want) {
				out = append(out, fmt.Sprintf("S%d: C-LIB attributes %d entries, ground truth %d", id, len(got), len(want)))
			}
			if v, lv := ctrl.CLIB().VersionOn(id), sw.LFIB().Version(); v != lv {
				out = append(out, fmt.Sprintf("S%d: C-LIB version %#x != L-FIB version %#x", id, v, lv))
			}
			if ctrl.IsDead(id) {
				out = append(out, fmt.Sprintf("S%d: controller still marks it dead", id))
			}
			if ctrl.Grouping().GroupOf(id) == model.NoGroup {
				out = append(out, fmt.Sprintf("S%d: ungrouped at the controller", id))
				continue
			}
		}

		group := sw.Group()
		if len(group.Members) == 0 {
			out = append(out, fmt.Sprintf("S%d: has no group view", id))
			continue
		}
		if ctrl != nil {
			ctrlMembers := ctrl.Grouping().Members(ctrl.Grouping().GroupOf(id))
			if !switchSetEqual(group.Members, ctrlMembers) {
				out = append(out, fmt.Sprintf("S%d: group view %v != controller grouping %v", id, group.Members, ctrlMembers))
			}
		}

		// G-FIB: exactly the live host-bearing peers, right bytes,
		// right versions.
		wantPeers := make(map[model.SwitchID]bool)
		memberSet := make(map[model.SwitchID]bool)
		for _, peer := range group.Members {
			memberSet[peer] = true
			if peer == id || w.down(peer) {
				continue
			}
			if _, ok := w.Switches[peer]; !ok {
				continue
			}
			if len(w.Hosts(peer)) == 0 {
				continue // a hostless peer never advertises, so no filter
			}
			wantPeers[peer] = true
		}
		held := sw.GFIB().SnapshotBytes()
		for peer := range wantPeers {
			data, ok := held[peer]
			if !ok {
				out = append(out, fmt.Sprintf("S%d: G-FIB missing filter for peer S%d", id, peer))
				continue
			}
			ref, err := fib.FilterBytesFromWireEntries(w.Hosts(peer), fib.DefaultFilterBits, fib.DefaultFilterHashes)
			if err != nil {
				out = append(out, fmt.Sprintf("S%d: reference filter for S%d: %v", id, peer, err))
				continue
			}
			if string(data) != string(ref) {
				out = append(out, fmt.Sprintf("S%d: G-FIB filter for S%d diverges from ground-truth bytes", id, peer))
			}
			if v, _ := sw.GFIB().PeerVersion(peer); v != w.Switches[peer].LFIB().Version() {
				out = append(out, fmt.Sprintf("S%d: G-FIB version for S%d is %#x, peer L-FIB at %#x",
					id, peer, v, w.Switches[peer].LFIB().Version()))
			}
		}
		for peer, data := range held {
			if wantPeers[peer] {
				continue
			}
			// The controller preloads an *empty* filter for a live,
			// hostless member (its C-LIB slice is empty). An empty
			// filter matches nothing, so it is semantically absence —
			// not a ghost.
			if _, live := w.Switches[peer]; live && !w.down(peer) && memberSet[peer] &&
				len(w.Hosts(peer)) == 0 && string(data) == string(w.emptyFilter()) {
				continue
			}
			out = append(out, fmt.Sprintf("S%d: G-FIB holds ghost filter for S%d", id, peer))
		}
	}
	sort.Strings(out)
	// With a flight recorder wired, follow the sorted violations with
	// each violating switch's protocol tail — the wire history that led
	// up to the bad state. Tails come after all violations (and only
	// when there are violations), so "no divergence" stays len == 0.
	if w.Flight != nil {
		var ids []model.SwitchID
		seen := make(map[model.SwitchID]bool)
		for _, v := range out {
			var id int
			if n, _ := fmt.Sscanf(v, "S%d:", &id); n == 1 && !seen[model.SwitchID(id)] {
				seen[model.SwitchID(id)] = true
				ids = append(ids, model.SwitchID(id))
			}
		}
		for _, id := range ids {
			for _, line := range w.Flight(id) {
				out = append(out, fmt.Sprintf("flight S%d: %s", id, line))
			}
		}
	}
	return out
}

func switchSetEqual(a, b []model.SwitchID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]model.SwitchID(nil), a...)
	bs := append([]model.SwitchID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Probe samples the version state mid-run and returns violations of
// the no-stale-adoption invariant: a G-FIB filter version or C-LIB
// switch version that regressed since an earlier Probe means a view
// adopted a snapshot from a superseded epoch/version, and a cluster
// generation that regressed within a holder's incarnation means a view
// applied a fenced (stale-master) message. Call it periodically while
// faults are active; absence of state (an evicted filter, a removed
// C-LIB switch) is not a regression — only adopting *older* state is,
// and an edge reboot (detected by its advanced L-FIB epoch)
// legitimately restarts its generation fence at zero.
func (w *World) Probe() []string {
	if w.maxSeen == nil {
		w.maxSeen = make(map[[2]model.SwitchID]uint64)
	}
	if w.genSeen == nil {
		w.genSeen = make(map[model.SwitchID]genMark)
	}
	var out []string
	ctrls := w.Replicas
	if len(ctrls) == 0 && w.Controller != nil {
		ctrls = []*controller.Controller{w.Controller}
	}
	for _, id := range w.ids() {
		if w.down(id) {
			continue
		}
		sw := w.Switches[id]
		for i, g := 0, sw.GFIB(); i < g.Len(); i++ {
			peer, v := g.At(i)
			key := [2]model.SwitchID{id, peer}
			if prev := w.maxSeen[key]; v < prev {
				out = append(out, fmt.Sprintf("S%d: adopted stale filter for S%d: %#x after %#x (epoch %d < %d)",
					id, peer, v, prev, v>>fib.VersionEpochShift, prev>>fib.VersionEpochShift))
			} else {
				w.maxSeen[key] = v
			}
		}
		// C-LIB versions are tracked per replica: each mirror advances
		// on its own journal/report stream, and a standby legitimately
		// lags the master it mirrors.
		for _, r := range ctrls {
			key := [2]model.SwitchID{r.NodeID(), id}
			if v := r.CLIB().VersionOn(id); v != 0 {
				if prev := w.maxSeen[key]; v < prev {
					out = append(out, fmt.Sprintf("C-LIB(%d): adopted stale version for S%d: %#x after %#x", r.NodeID(), id, v, prev))
				} else {
					w.maxSeen[key] = v
				}
			}
		}
		if g := sw.CtrlGeneration(); g != 0 {
			ep := sw.LFIB().Version() >> fib.VersionEpochShift
			m, known := w.genSeen[id]
			switch {
			case known && ep == m.epoch && g < m.gen:
				out = append(out, fmt.Sprintf("S%d: regressed to generation %d after %d — applied a fenced message", id, g, m.gen))
			default:
				w.genSeen[id] = genMark{epoch: ep, gen: g}
			}
		}
	}
	// Replica generations are strictly monotone: controllers do not
	// reboot, and adoptGeneration only moves up.
	for _, r := range w.Replicas {
		g := r.Generation()
		if m, known := w.genSeen[r.NodeID()]; known && g < m.gen {
			out = append(out, fmt.Sprintf("controller %d: generation regressed to %d after %d", r.NodeID(), g, m.gen))
		} else {
			w.genSeen[r.NodeID()] = genMark{gen: g}
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot renders the content fixpoint as a canonical string:
// grouping structure, designated roles, every L-FIB binding, C-LIB
// attribution, and G-FIB filter bytes (hashed), all in sorted order.
// Versions and epochs are deliberately excluded — a faulted run reaches
// the same *content* fixpoint at higher epochs — and so are the master
// identity and cluster generation: a failover run converges with the
// standby ruling at a higher generation, yet must reach the same
// content fixpoint as the fault-free run. So a fault-free run and a
// faulted run of the same seed must produce byte-identical snapshots
// once converged (the differential acceptance test). Version, role,
// and generation coherence are checked separately, within-run, by
// Diverged and Probe.
func (w *World) Snapshot() string {
	ctrl := w.activeController()
	var b strings.Builder
	for _, id := range w.ids() {
		if w.down(id) {
			continue
		}
		sw := w.Switches[id]
		group := sw.Group()
		members := append([]model.SwitchID(nil), group.Members...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		fmt.Fprintf(&b, "S%d group=%d designated=%d members=%v\n", id, group.Group, group.Designated, members)
		for _, e := range sortedEntries(sw.LFIB().WireEntries()) {
			fmt.Fprintf(&b, "  lfib %s %s %d\n", e.MAC, e.IP, e.VLAN)
		}
		held := sw.GFIB().SnapshotBytes()
		peers := make([]model.SwitchID, 0, len(held))
		for p := range held {
			// An empty filter is semantically absence (see Diverged);
			// whether one lingers depends on preload/tombstone history,
			// so it must not influence the content fixpoint.
			if string(held[p]) == string(w.emptyFilter()) {
				continue
			}
			peers = append(peers, p)
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		for _, p := range peers {
			fmt.Fprintf(&b, "  gfib S%d %x\n", p, sha256.Sum256(held[p]))
		}
		if ctrl != nil {
			for _, e := range sortedEntries(ctrl.CLIB().EntriesOn(id)) {
				fmt.Fprintf(&b, "  clib %s %s %d\n", e.MAC, e.IP, e.VLAN)
			}
		}
	}
	return b.String()
}

// Settle runs the convergence loop: advance the clock one round at a
// time (via step) until Diverged returns empty or maxRounds is
// exhausted. Returns the rounds consumed, whether the world converged,
// and the last divergence list (nil when converged).
func (w *World) Settle(maxRounds int, step func(round time.Duration), round time.Duration) (int, bool, []string) {
	var last []string
	for r := 1; r <= maxRounds; r++ {
		step(round)
		last = w.Diverged()
		if len(last) == 0 {
			return r, true, nil
		}
	}
	return maxRounds, false, last
}
