package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
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
//
// The set of switches (and of replicas) is read on the first call and
// must not change afterwards; their state may change freely.
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

	// ids lists Switches ascending and sws holds the switch at each
	// position; ctrls lists the controllers whose C-LIBs Probe tracks
	// (every replica, or the single controller). All three are built on
	// the first call (see index), and every per-switch table below is
	// indexed by a switch's position in ids.
	ids   []model.SwitchID
	sws   []*edge.Switch
	ctrls []*controller.Controller
	// The Probe high-water marks — the no-stale-epoch-adoption
	// invariant is "these never regress". gfibSeen[i] holds the highest
	// G-FIB filter version holder ids[i] ever held per peer, ascending
	// by peer; a peer no longer held keeps its mark. clibSeen[r][i] is
	// the highest C-LIB version replica r ever recorded for ids[i].
	gfibSeen [][]peerMark
	clibSeen [][]uint64
	// genSeen[i] and replicaGen[r] track the highest cluster generation
	// switch ids[i] and replica r ever observed; the failover fencing
	// invariant is "generations never regress within an incarnation"
	// (an edge reboot legitimately resets its fence, detected via the
	// L-FIB epoch).
	genSeen    []genMark
	replicaGen []genMark
	// emptyRef caches the empty-set filter encoding (see emptyFilter),
	// and buf is the reused buffer held filters are encoded into.
	emptyRef []byte
	buf      []byte
}

// peerMark is one G-FIB high-water mark: the highest filter version a
// holder ever held for one peer.
type peerMark struct {
	peer    model.SwitchID
	version uint64
}

// genMark is one holder's generation high-water mark, tagged with the
// L-FIB incarnation epoch it was observed in (always 0 for replicas —
// controller replicas do not reboot). The zero mark is "never seen".
type genMark struct {
	epoch uint64
	gen   uint64
}

// index builds the sorted switch list and sizes the mark tables, once.
func (w *World) index() {
	if w.ids != nil {
		return
	}
	w.ids = slices.Sorted(maps.Keys(w.Switches))
	w.sws = make([]*edge.Switch, len(w.ids))
	for i, id := range w.ids {
		w.sws[i] = w.Switches[id]
	}
	w.gfibSeen = make([][]peerMark, len(w.ids))
	w.genSeen = make([]genMark, len(w.ids))
	w.ctrls = w.Replicas
	if len(w.Replicas) == 0 && w.Controller != nil {
		w.ctrls = []*controller.Controller{w.Controller}
	}
	w.clibSeen = make([][]uint64, len(w.ctrls))
	for r := range w.clibSeen {
		w.clibSeen[r] = make([]uint64, len(w.ids))
	}
	w.replicaGen = make([]genMark, len(w.Replicas))
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
//
// Ground truth is read once per live switch per call, and each peer's
// reference filter is built at most once per call, however many
// holders compare against it.
func (w *World) Diverged() []string {
	w.index()
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
	truth := make([][]openflow.LFIBEntry, len(w.ids)) // H(S), live switches only
	for i, id := range w.ids {
		if !w.down(id) {
			truth[i] = w.Hosts(id)
		}
	}
	refs := make([][]byte, len(w.ids)) // reference encodings, built on first use
	for i, id := range w.ids {
		if w.down(id) {
			continue
		}
		sw := w.sws[i]
		want := sortedEntries(truth[i])

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
		// right versions. The members (deduplicated) and the table are
		// merge-walked, both ascending by peer; a held peer that is no
		// member is a ghost.
		members := slices.Compact(slices.Sorted(slices.Values(group.Members)))
		g := sw.GFIB()
		j := 0
		for _, peer := range members {
			for ; j < g.Len(); j++ {
				p, _ := g.At(j)
				if p >= peer {
					break
				}
				out = append(out, fmt.Sprintf("S%d: G-FIB holds ghost filter for S%d", id, p))
			}
			held := false
			if j < g.Len() {
				p, _ := g.At(j)
				held = p == peer
			}
			pi, live := slices.BinarySearch(w.ids, peer) // live: one of Switches, and up
			live = live && !w.down(peer)
			switch {
			case peer != id && live && len(truth[pi]) > 0:
				if !held {
					out = append(out, fmt.Sprintf("S%d: G-FIB missing filter for peer S%d", id, peer))
					break
				}
				if refs[pi] == nil {
					refs[pi], _ = fib.FilterBytesFromWireEntries(truth[pi], fib.DefaultFilterBits, fib.DefaultFilterHashes)
				}
				if w.buf = g.AppendFilter(w.buf[:0], j); !bytes.Equal(w.buf, refs[pi]) {
					out = append(out, fmt.Sprintf("S%d: G-FIB filter for S%d diverges from ground-truth bytes", id, peer))
				}
				if _, v := g.At(j); v != w.sws[pi].LFIB().Version() {
					out = append(out, fmt.Sprintf("S%d: G-FIB version for S%d is %#x, peer L-FIB at %#x",
						id, peer, v, w.sws[pi].LFIB().Version()))
				}
			case held:
				// The controller preloads an *empty* filter for a live,
				// hostless member (its C-LIB slice is empty). An empty
				// filter matches nothing, so it is semantically absence —
				// not a ghost.
				w.buf = g.AppendFilter(w.buf[:0], j)
				if !live || len(truth[pi]) != 0 || !bytes.Equal(w.buf, w.emptyFilter()) {
					out = append(out, fmt.Sprintf("S%d: G-FIB holds ghost filter for S%d", id, peer))
				}
			}
			if held {
				j++
			}
		}
		for ; j < g.Len(); j++ {
			p, _ := g.At(j)
			out = append(out, fmt.Sprintf("S%d: G-FIB holds ghost filter for S%d", id, p))
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
// faults are active and while the world settles; absence of state (an
// evicted filter, a removed C-LIB switch) is not a regression — only
// adopting *older* state is, and an edge reboot (detected by its
// advanced L-FIB epoch) legitimately restarts its generation fence at
// zero. A probe that finds nothing allocates nothing once every mark
// exists.
func (w *World) Probe() []string {
	w.index()
	var out []string
	for i, id := range w.ids {
		if w.down(id) {
			continue
		}
		sw := w.sws[i]
		w.gfibSeen[i], out = probeGFIB(w.gfibSeen[i], id, sw.GFIB(), out)
		// C-LIB versions are tracked per replica: each mirror advances
		// on its own journal/report stream, and a standby legitimately
		// lags the master it mirrors.
		for r, c := range w.ctrls {
			if v := c.CLIB().VersionOn(id); v != 0 {
				if prev := w.clibSeen[r][i]; v < prev {
					out = append(out, fmt.Sprintf("C-LIB(%d): adopted stale version for S%d: %#x after %#x", c.NodeID(), id, v, prev))
				} else {
					w.clibSeen[r][i] = v
				}
			}
		}
		if g := sw.CtrlGeneration(); g != 0 {
			ep := sw.LFIB().Version() >> fib.VersionEpochShift
			if m := w.genSeen[i]; ep == m.epoch && g < m.gen {
				out = append(out, fmt.Sprintf("S%d: regressed to generation %d after %d — applied a fenced message", id, g, m.gen))
			} else {
				w.genSeen[i] = genMark{epoch: ep, gen: g}
			}
		}
	}
	// Replica generations are strictly monotone: controllers do not
	// reboot, and adoptGeneration only moves up.
	for r, c := range w.Replicas {
		if g, m := c.Generation(), w.replicaGen[r]; g < m.gen {
			out = append(out, fmt.Sprintf("controller %d: generation regressed to %d after %d", c.NodeID(), g, m.gen))
		} else {
			w.replicaGen[r] = genMark{gen: g}
		}
	}
	sort.Strings(out)
	return out
}

// probeGFIB merge-walks one holder's table against its marks, both
// ascending by peer: a held version below its peer's mark is a stale
// adoption, any other raises the mark, and a peer held for the first
// time gets one. A mark whose peer is no longer held stays — absence is
// not a regression, but a later install below the mark still is.
func probeGFIB(marks []peerMark, holder model.SwitchID, g *fib.GFIB, out []string) ([]peerMark, []string) {
	k := 0
	for j := 0; j < g.Len(); j++ {
		peer, v := g.At(j)
		for k < len(marks) && marks[k].peer < peer {
			k++
		}
		switch {
		case k == len(marks) || marks[k].peer != peer:
			marks = slices.Insert(marks, k, peerMark{peer: peer, version: v})
		case v < marks[k].version:
			prev := marks[k].version
			out = append(out, fmt.Sprintf("S%d: adopted stale filter for S%d: %#x after %#x (epoch %d < %d)",
				holder, peer, v, prev, v>>fib.VersionEpochShift, prev>>fib.VersionEpochShift))
		default:
			marks[k].version = v
		}
		k++
	}
	return marks, out
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
//
// Holders of one group mostly hold the same filter for a peer, so each
// distinct encoding is hashed once per call (equal bytes, equal hash).
func (w *World) Snapshot() string {
	w.index()
	ctrl := w.activeController()
	sums := make(map[string][sha256.Size]byte)
	var b []byte
	for i, id := range w.ids {
		if w.down(id) {
			continue
		}
		sw := w.sws[i]
		group := sw.Group()
		b = append(b, 'S')
		b = strconv.AppendUint(b, uint64(id), 10)
		b = append(b, " group="...)
		b = strconv.AppendUint(b, uint64(group.Group), 10)
		b = append(b, " designated="...)
		b = strconv.AppendUint(b, uint64(group.Designated), 10)
		b = append(b, " members=["...)
		for k, m := range slices.Sorted(slices.Values(group.Members)) {
			if k > 0 {
				b = append(b, ' ')
			}
			b = append(b, m.String()...)
		}
		b = append(b, "]\n"...)
		for _, e := range sortedEntries(sw.LFIB().WireEntries()) {
			b = appendEntry(append(b, "  lfib "...), e)
		}
		g := sw.GFIB()
		for j := 0; j < g.Len(); j++ {
			// An empty filter is semantically absence (see Diverged);
			// whether one lingers depends on preload/tombstone history,
			// so it must not influence the content fixpoint.
			if w.buf = g.AppendFilter(w.buf[:0], j); bytes.Equal(w.buf, w.emptyFilter()) {
				continue
			}
			sum, ok := sums[string(w.buf)]
			if !ok {
				sum = sha256.Sum256(w.buf)
				sums[string(w.buf)] = sum
			}
			peer, _ := g.At(j)
			b = append(b, "  gfib S"...)
			b = strconv.AppendUint(b, uint64(peer), 10)
			b = append(b, ' ')
			b = append(hex.AppendEncode(b, sum[:]), '\n')
		}
		if ctrl != nil {
			for _, e := range sortedEntries(ctrl.CLIB().EntriesOn(id)) {
				b = appendEntry(append(b, "  clib "...), e)
			}
		}
	}
	return string(b)
}

// appendEntry appends "<mac> <ip> <vlan>\n", the MAC and IP rendered as
// their String methods do.
func appendEntry(b []byte, e openflow.LFIBEntry) []byte {
	const digits = "0123456789abcdef"
	for k, x := range e.MAC {
		if k > 0 {
			b = append(b, ':')
		}
		b = append(b, digits[x>>4], digits[x&0xf])
	}
	b = append(b, ' ')
	for k, shift := range [4]uint{24, 16, 8, 0} {
		if k > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(byte(e.IP>>shift)), 10)
	}
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(e.VLAN), 10)
	return append(b, '\n')
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
