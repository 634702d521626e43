package chaos_test

// The reference half of TestWorldMatchesReference: chaos.World's Probe,
// Diverged and Snapshot as they stood before the checker stopped
// re-deriving state on every call — a hashed per-(holder, peer) version
// map, a reference filter rebuilt per (holder, peer) pair, a marshalled
// copy of every held filter and a sha256 of each — copied verbatim
// with their helpers. Two edits: the receiver is refWorld, which wraps
// the World under test for its exported fields and carries its own
// marks; and GFIB.SnapshotBytes, which the G-FIB no longer has, is the
// snapshotBytes function below.

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/failover"
	"lazyctrl/internal/fib"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/rig"
	"lazyctrl/internal/sim"
	"lazyctrl/internal/tenant"
)

// refCase is one world the reference programs drive: its clock and
// underlay, the checker under test and the reference over the same
// state, the ground truth the program edits, and the variant's reboot.
type refCase struct {
	s      *sim.Simulator
	net    *netsim.Network
	w      *chaos.World
	ref    *refWorld
	ids    []model.SwitchID
	ctrls  []*controller.Controller
	truth  map[model.SwitchID][]openflow.LFIBEntry
	reboot func(model.SwitchID)
}

// newRefCase takes the world's ground truth over into an editable map
// and wires flight tails, so Diverged's tail section runs too.
func newRefCase(s *sim.Simulator, n *netsim.Network, w *chaos.World) *refCase {
	c := &refCase{s: s, net: n, w: w, ref: &refWorld{World: w}, truth: make(map[model.SwitchID][]openflow.LFIBEntry)}
	for id := range w.Switches {
		c.ids = append(c.ids, id)
	}
	slices.Sort(c.ids)
	for _, id := range c.ids {
		c.truth[id] = slices.Clone(w.Hosts(id))
	}
	w.Hosts = func(sw model.SwitchID) []openflow.LFIBEntry { return c.truth[sw] }
	w.Flight = func(sw model.SwitchID) []string { return []string{"first event of " + sw.String(), "last"} }
	c.ctrls = w.Replicas
	if len(c.ctrls) == 0 && w.Controller != nil {
		c.ctrls = []*controller.Controller{w.Controller}
	}
	return c
}

// miniCase is chaos.MiniWorld: one 3-switch group, no controller. A
// reboot re-attaches the ground truth and hands the group view back
// directly, standing in for the controller's re-push.
func miniCase(t *testing.T) *refCase {
	s, n, w := chaos.MiniWorld(t)
	c := newRefCase(s, n, w)
	members := []model.SwitchID{1, 2, 3}
	wheel := failover.BuildWheel(members)
	cfgVersion := uint64(1)
	c.reboot = func(id model.SwitchID) {
		sw := w.Switches[id]
		sw.Reboot()
		for _, e := range c.truth[id] {
			sw.AttachHost(e.MAC, e.IP, e.VLAN)
		}
		cfgVersion++
		prev, next := failover.Neighbors(wheel, id)
		sw.HandleMessage(model.ControllerNode, &openflow.GroupConfig{
			Group: 1, Members: members, Designated: 2,
			RingPrev: prev, RingNext: next,
			SyncInterval: 5 * time.Second, KeepAliveInterval: time.Second,
			Version: cfgVersion,
		})
	}
	return c
}

// rigCase is a 6-switch rig in two groups of three, with one
// controller or — replicated — a primary and a standby.
func rigCase(t *testing.T, standby bool) *refCase {
	dir := tenant.NewDirectory([]model.SwitchID{1, 2, 3, 4, 5, 6})
	for tid := model.TenantID(1); tid <= 2; tid++ {
		if err := dir.AddTenant(tid, model.VLAN(tid)); err != nil {
			t.Fatal(err)
		}
	}
	for sw := model.SwitchID(1); sw <= 6; sw++ {
		for k := 0; k < 2; k++ {
			if _, err := dir.AddHost(model.HostID(10*int(sw)+k), model.TenantID(1+(sw-1)/3), sw); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, err := rig.New(dir,
		controller.Config{Mode: controller.ModeLazy, GroupSizeLimit: 3, Seed: 5},
		edge.Config{AdvertiseInterval: time.Second, ReportInterval: 2 * time.Second},
		standby)
	if err != nil {
		t.Fatal(err)
	}
	m := grouping.NewIntensity()
	for _, sw := range dir.Switches() {
		m.AddSwitch(sw)
	}
	for _, p := range [][2]model.SwitchID{{1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}} {
		m.Add(p[0], p[1], 10)
	}
	if err := r.Primary().InitialGrouping(m); err != nil {
		t.Fatal(err)
	}
	c := newRefCase(r.Sim(), r.Net(), r.World())
	c.reboot = func(id model.SwitchID) {
		r.Crash(id)
		r.Restart(id)
	}
	return c
}

// TestWorldMatchesReference runs seeded programs of world mutations —
// ghost filter installs, removals, version rewinds, flipped filter
// bits, empty filters preloaded for a hostless member, switches and
// replicas going down, epoch-advancing reboots, C-LIB rewinds, host
// attach and detach on either side of the ground truth — interleaved
// with simulated time, and after every step requires Probe, Diverged
// (flight tails included) and Snapshot to equal the reference's byte
// for byte.
func TestWorldMatchesReference(t *testing.T) {
	variants := []struct {
		name     string
		programs int
		build    func(*testing.T) *refCase
	}{
		{"mini", 200, miniCase},
		{"controller", 50, func(t *testing.T) *refCase { return rigCase(t, false) }},
		{"replicated", 100, func(t *testing.T) *refCase { return rigCase(t, true) }},
	}
	classes := []string{
		"adopted stale filter", "C-LIB(", "ghost filter", "missing filter",
		"diverges from ground-truth", "G-FIB version for", "has no group view",
		"L-FIB has", "C-LIB attributes", "C-LIB version", "flight S",
		"empty preload accepted", "gfib S",
	}
	seen := make(map[string]int)
	const steps = 40
	for _, v := range variants {
		for prog := 0; prog < v.programs; prog++ {
			rng := rand.New(rand.NewPCG(uint64(prog), 31))
			c := v.build(t)
			c.s.RunFor(time.Duration(rng.IntN(30)) * time.Second)
			nextHost := model.HostID(1000)
			for step := 0; step < steps; step++ {
				op := c.mutate(rng, &nextHost)
				at := fmt.Sprintf("%s program %d step %d (%s)", v.name, prog, step, op)
				probe, refProbe := c.w.Probe(), c.ref.Probe()
				if !slices.Equal(probe, refProbe) {
					t.Fatalf("%s: Probe\n got %q\nwant %q", at, probe, refProbe)
				}
				div, refDiv := c.w.Diverged(), c.ref.Diverged()
				if !slices.Equal(div, refDiv) {
					t.Fatalf("%s: Diverged\n got %q\nwant %q", at, div, refDiv)
				}
				snap, refSnap := c.w.Snapshot(), c.ref.Snapshot()
				if snap != refSnap {
					t.Fatalf("%s: Snapshot\n got %q\nwant %q", at, snap, refSnap)
				}
				all := strings.Join(append(append(refProbe, refDiv...), refSnap), "\n")
				for _, class := range classes {
					if strings.Contains(all, class) {
						seen[class]++
					}
				}
				if op == "empty preload" && !strings.Contains(all, "ghost") {
					seen["empty preload accepted"]++
				}
			}
		}
	}
	for _, class := range classes {
		if seen[class] < 20 {
			t.Errorf("the programs reached %q only %d times — the comparison proves little about it", class, seen[class])
		}
	}
}

// mutate applies one random step to the world and names it.
func (c *refCase) mutate(rng *rand.Rand, nextHost *model.HostID) string {
	pick := func() model.SwitchID { return c.ids[rng.IntN(len(c.ids))] }
	holder := c.w.Switches[pick()].GFIB()
	switch rng.IntN(14) {
	case 0, 1, 2, 3:
		c.s.RunFor(time.Duration(1+rng.IntN(20)) * time.Second)
		return "run"
	case 4:
		// A filter for any switch, or for one that does not exist, built
		// from the peer's own ground truth or another switch's.
		peer, src := pick(), pick()
		if rng.IntN(4) == 0 {
			peer = 99
		} else if rng.IntN(2) == 0 {
			src = peer
		}
		data, _ := fib.FilterBytesFromWireEntries(c.truth[src], fib.DefaultFilterBits, fib.DefaultFilterHashes)
		v := uint64(1)
		if sw := c.w.Switches[peer]; sw != nil {
			v = sw.LFIB().Version()
		}
		v = max(1, v+uint64(rng.IntN(3))-1)
		if err := holder.SetFilterBytes(peer, data, v); err != nil {
			panic(err)
		}
		return "ghost install"
	case 5:
		if holder.Len() > 0 {
			peer, _ := holder.At(rng.IntN(holder.Len()))
			holder.RemoveFilter(peer)
		}
		return "remove"
	case 6:
		if holder.Len() > 0 {
			i := rng.IntN(holder.Len())
			peer, v := holder.At(i)
			if d := uint64(1 + rng.IntN(2)); v > d {
				if err := holder.SetFilterBytes(peer, holder.AppendFilter(nil, i), v-d); err != nil {
					panic(err)
				}
			}
		}
		return "rewind"
	case 7:
		if holder.Len() > 0 {
			i := rng.IntN(holder.Len())
			peer, v := holder.At(i)
			data := holder.AppendFilter(nil, i)
			bit := 20*8 + rng.IntN((len(data)-20)*8) // past the header
			data[bit/8] ^= 1 << (bit % 8)
			if err := holder.SetFilterBytes(peer, data, v); err != nil {
				panic(err)
			}
		}
		return "flip"
	case 8:
		// Make a member hostless on both sides, then preload the empty
		// filter the controller sends for it.
		peer := pick()
		sw := c.w.Switches[peer]
		for _, e := range c.truth[peer] {
			sw.DetachHost(e.MAC)
		}
		c.truth[peer] = nil
		empty, _ := fib.FilterBytesFromWireEntries(nil, fib.DefaultFilterBits, fib.DefaultFilterHashes)
		if err := holder.SetFilterBytes(peer, empty, sw.LFIB().Version()); err != nil {
			panic(err)
		}
		return "empty preload"
	case 9:
		id := pick()
		if rng.IntN(4) == 0 && len(c.ctrls) > 1 {
			id = c.ctrls[rng.IntN(len(c.ctrls))].NodeID()
		}
		if c.net.NodeDown(id) {
			c.net.HealNode(id)
		} else {
			c.net.FailNode(id)
		}
		return "down/up"
	case 10:
		c.reboot(pick())
		return "reboot"
	case 11:
		// Attach on both sides, or on one only (a diverged L-FIB).
		id := pick()
		*nextHost++
		e := openflow.LFIBEntry{MAC: model.HostMAC(*nextHost), IP: model.HostIP(*nextHost), VLAN: 1}
		side := rng.IntN(4)
		if side != 2 {
			c.w.Switches[id].AttachHost(e.MAC, e.IP, e.VLAN)
		}
		if side != 3 {
			c.truth[id] = append(slices.Clone(c.truth[id]), e)
		}
		return "attach"
	case 12:
		id := pick()
		if n := len(c.truth[id]); n > 0 {
			k := rng.IntN(n)
			side := rng.IntN(4)
			if side != 2 {
				c.w.Switches[id].DetachHost(c.truth[id][k].MAC)
			}
			if side != 3 {
				c.truth[id] = slices.Delete(slices.Clone(c.truth[id]), k, k+1)
			}
		}
		return "detach"
	default:
		// Rewind one replica's C-LIB stamp for a switch.
		if len(c.ctrls) == 0 {
			return "no C-LIB"
		}
		ctrl, id := c.ctrls[rng.IntN(len(c.ctrls))], pick()
		if v := ctrl.CLIB().VersionOn(id); v > 1 {
			ctrl.CLIB().RemoveSwitch(id)
			ctrl.CLIB().ApplyLFIB(id, ctrl.Grouping().GroupOf(id), &openflow.LFIBUpdate{
				Origin: id, Full: true, Version: v - 1, Entries: c.truth[id],
			})
		}
		return "C-LIB rewind"
	}
}

// refWorld is the reference checker over the same world: the exported
// configuration is the wrapped World's, the Probe state its own.
type refWorld struct {
	*chaos.World
	maxSeen  map[[2]model.SwitchID]uint64
	genSeen  map[model.SwitchID]genMark
	emptyRef []byte
}

// snapshotBytes is the retired GFIB.SnapshotBytes: every installed
// filter's encoding, keyed by peer.
func snapshotBytes(g *fib.GFIB) map[model.SwitchID][]byte {
	out := make(map[model.SwitchID][]byte, g.Len())
	for i := 0; i < g.Len(); i++ {
		peer, _ := g.At(i)
		out[peer] = g.AppendFilter(nil, i)
	}
	return out
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
func (w *refWorld) activeController() *controller.Controller {
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

func (w *refWorld) down(sw model.SwitchID) bool { return w.Down != nil && w.Down(sw) }

// emptyFilter returns (and caches) the byte encoding of the empty-set
// Bloom filter at the world's geometry.
func (w *refWorld) emptyFilter() []byte {
	if w.emptyRef == nil {
		w.emptyRef, _ = fib.FilterBytesFromWireEntries(nil, fib.DefaultFilterBits, fib.DefaultFilterHashes)
	}
	return w.emptyRef
}

func (w *refWorld) ids() []model.SwitchID {
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
func (w *refWorld) Diverged() []string {
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
		held := snapshotBytes(sw.GFIB())
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
func (w *refWorld) Probe() []string {
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
func (w *refWorld) Snapshot() string {
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
		held := snapshotBytes(sw.GFIB())
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
