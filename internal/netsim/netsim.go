// Package netsim provides the simulated network underlay of the LazyCtrl
// prototype: a core–edge separated IP fabric giving one-hop logical
// distance between edge switches (§III-B1), with configurable link
// latencies and link/node failure injection, on the deterministic
// discrete-event runtime every experiment, test and benchmark uses.
package netsim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/sim"
)

// Message is anything delivered between nodes: a data-plane packet
// (*model.Packet) or a control message (openflow.Message).
type Message any

// Node is a network element attached to the underlay. Handlers run
// single-threaded.
type Node interface {
	// NodeID returns the node's address. The controller uses
	// model.ControllerNode.
	NodeID() model.SwitchID
	// HandleMessage processes one delivered message.
	HandleMessage(from model.SwitchID, msg Message)
}

// Env is the runtime handed to a node: virtual time, timers, and
// message sending. Implementations guarantee all callbacks and
// HandleMessage invocations of one node never run concurrently.
type Env interface {
	// Now returns the time since simulation start.
	Now() time.Duration
	// After schedules fn after d. The returned cancel function stops a
	// pending callback. A caller that drops the cancel uses Post, which
	// does not build one.
	After(d time.Duration, fn func()) (cancel func())
	// Every schedules fn at a fixed period until canceled.
	Every(d time.Duration, fn func()) (cancel func())
	// Send delivers msg to the node with the given address, applying
	// link latency and loss.
	Send(to model.SwitchID, msg Message)
}

// LinkKind classifies a logical channel for latency selection and
// failure injection.
type LinkKind uint8

// Link kinds per §III-B3: the data path through the core, the control
// link (switch ↔ controller), the state link (designated ↔ controller),
// and peer links within a group. State links share the control-link
// latency class.
const (
	LinkData LinkKind = iota + 1
	LinkControl
	LinkPeer
)

// Latencies configures one-way delays per link kind plus per-message
// jitter.
type Latencies struct {
	// Data is the one-way edge→edge delay through the IP core.
	Data time.Duration
	// Control is the one-way switch↔controller delay.
	Control time.Duration
	// Peer is the one-way delay between switches in the same group.
	Peer time.Duration
	// JitterFrac adds uniform jitter in [0, JitterFrac·base).
	JitterFrac float64
}

// DefaultLatencies reflects the paper's prototype: GigE edges over a
// 10GigE full-mesh core, controller on a separate PC. Calibrated so the
// steady-state one-way datapath is ≈0.4 ms (Fig. 9) and a cold-cache
// intra-group first packet lands at ≈0.8 ms (§V-E).
func DefaultLatencies() Latencies {
	return Latencies{
		Data:       350 * time.Microsecond,
		Control:    400 * time.Microsecond,
		Peer:       300 * time.Microsecond,
		JitterFrac: 0.10,
	}
}

func (l Latencies) delay(kind LinkKind, rng *rand.Rand) time.Duration {
	var base time.Duration
	switch kind {
	case LinkControl:
		base = l.Control
	case LinkPeer:
		base = l.Peer
	default:
		base = l.Data
	}
	if l.JitterFrac > 0 {
		base += time.Duration(rng.Float64() * l.JitterFrac * float64(base))
	}
	return base
}

// classify selects the link kind for a (from, to) pair.
func classify(from, to model.SwitchID, samegroup func(a, b model.SwitchID) bool) LinkKind {
	if model.IsControllerAddr(from) || model.IsControllerAddr(to) {
		return LinkControl
	}
	if samegroup != nil && samegroup(from, to) {
		return LinkPeer
	}
	return LinkData
}

// DropStats breaks message losses down by cause, so scenario
// assertions can distinguish injected faults from collateral drops.
type DropStats struct {
	// DownAtSend counts messages dropped because the sender, receiver,
	// or link was failed when the message was sent.
	DownAtSend uint64
	// DownAtDelivery counts messages that were in flight when the
	// receiver failed.
	DownAtDelivery uint64
	// NoRoute counts messages addressed to an unattached node.
	NoRoute uint64
	// InjectedLoss counts messages dropped by a FaultRule loss draw.
	InjectedLoss uint64
	// Partition counts messages dropped by an active Partition.
	Partition uint64
}

// Total sums all drop causes.
func (d DropStats) Total() uint64 {
	return d.DownAtSend + d.DownAtDelivery + d.NoRoute + d.InjectedLoss + d.Partition
}

// FaultRule describes a per-link fault-injection rule: probabilistic
// loss, extra fixed delay, uniform extra jitter, and probabilistic
// reordering (an additional uniform delay in [0, ReorderDelay) that
// lets later messages overtake). Rules match in both directions;
// model.NoSwitch acts as a wildcard endpoint, so {A: x, B: NoSwitch}
// matches every link touching x and {NoSwitch, NoSwitch} matches all
// traffic. All random draws use the simulator's seeded source, so a
// fault schedule is reproducible from the run seed.
type FaultRule struct {
	A, B         model.SwitchID
	Loss         float64       // drop probability in [0, 1]
	ExtraDelay   time.Duration // added to every matching message
	ExtraJitter  time.Duration // uniform extra delay in [0, ExtraJitter)
	ReorderProb  float64       // probability of a reordering delay
	ReorderDelay time.Duration // max reordering delay when drawn
}

func (r *FaultRule) matches(from, to model.SwitchID) bool {
	switch {
	case r.A == model.NoSwitch && r.B == model.NoSwitch:
		return true
	case r.A == model.NoSwitch:
		return from == r.B || to == r.B
	case r.B == model.NoSwitch:
		return from == r.A || to == r.A
	default:
		return (from == r.A && to == r.B) || (from == r.B && to == r.A)
	}
}

// partition is a bidirectional cut between two node sets.
type partition struct {
	a, b map[model.SwitchID]bool
}

func (p *partition) separates(from, to model.SwitchID) bool {
	return (p.a[from] && p.b[to]) || (p.a[to] && p.b[from])
}

// Network is the discrete-event underlay.
type Network struct {
	sim        *sim.Simulator
	lat        Latencies
	nodes      map[model.SwitchID]Node
	downLinks  map[model.SwitchPair]bool
	downNodes  map[model.SwitchID]bool
	sameGroup  func(a, b model.SwitchID) bool
	faults     []*FaultRule
	partitions []*partition
	free       []*delivery // released deliveries (see delivery)
	// blocks holds a *Block[T] per message type T (see BlockFor).
	blocks map[reflect.Type]any

	// Delivered counts messages delivered; Drops counts messages lost,
	// by cause.
	Delivered uint64
	Drops     DropStats

	// Meter, when set, observes every message put on the wire (after
	// send-side drop checks). Harnesses that byte-meter the control
	// channel install it; analytic fold credits flow into the same
	// accounting on the harness side.
	Meter func(from, to model.SwitchID, msg Message)
	// Observer, when set, sees every control-plane message put on the
	// wire right after Meter and, at delivery time, every one handed
	// to its destination (delivered=true). Data-plane transits
	// (*model.Packet) are excluded in the send path itself: they
	// outnumber control messages by orders of magnitude, every
	// consumer filters them out anyway, and the closure call per
	// packet-hop is measurable (BenchmarkTelemetryOverhead). The
	// telemetry flight recorders hang off this hook: the eval harness
	// installs one observer that appends the event to both endpoints'
	// rings.
	Observer func(from, to model.SwitchID, msg Message, delivered bool)
	// OnFaultChange, when set, fires whenever the underlay's fault
	// state changes (link/node failure or heal, fault rules, partitions)
	// — the signal control-plane elision uses to re-materialize timers.
	OnFaultChange func()
}

// New creates a DES underlay on the given simulator.
func New(s *sim.Simulator, lat Latencies) *Network {
	return &Network{
		sim:       s,
		lat:       lat,
		nodes:     make(map[model.SwitchID]Node),
		downLinks: make(map[model.SwitchPair]bool),
		downNodes: make(map[model.SwitchID]bool),
		blocks:    make(map[reflect.Type]any),
	}
}

// SetSameGroup installs the predicate used to classify peer links (the
// controller's grouping decides which switches share a group).
func (n *Network) SetSameGroup(fn func(a, b model.SwitchID) bool) { n.sameGroup = fn }

// Attach registers a node. It panics on duplicate addresses
// (a configuration bug, not a runtime condition).
func (n *Network) Attach(node Node) {
	id := node.NodeID()
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %v", id))
	}
	n.nodes[id] = node
}

// faultChanged notifies the fault-change hook.
func (n *Network) faultChanged() {
	if n.OnFaultChange != nil {
		n.OnFaultChange()
	}
}

// FailLink takes the (a,b) link down in both directions.
func (n *Network) FailLink(a, b model.SwitchID) {
	n.downLinks[model.MakeSwitchPair(a, b)] = true
	n.faultChanged()
}

// HealLink restores the (a,b) link.
func (n *Network) HealLink(a, b model.SwitchID) {
	delete(n.downLinks, model.MakeSwitchPair(a, b))
	n.faultChanged()
}

// FailNode takes a node down: all its traffic is dropped.
func (n *Network) FailNode(id model.SwitchID) {
	n.downNodes[id] = true
	n.faultChanged()
}

// HealNode restores a node.
func (n *Network) HealNode(id model.SwitchID) {
	delete(n.downNodes, id)
	n.faultChanged()
}

// NodeDown reports whether a node is failed.
func (n *Network) NodeDown(id model.SwitchID) bool { return n.downNodes[id] }

// Faulted reports whether any fault is active on the underlay: failed
// links or nodes, fault-injection rules, or partitions. While false,
// every message sent is delivered (messages to unattached nodes
// aside), which is what licenses analytic folding of periodic
// heartbeats.
func (n *Network) Faulted() bool {
	return len(n.downLinks) > 0 || len(n.downNodes) > 0 ||
		len(n.faults) > 0 || len(n.partitions) > 0
}

// AddFault installs a fault-injection rule and returns a function that
// removes it. Multiple matching rules compose: loss draws are taken per
// rule and extra delays accumulate.
func (n *Network) AddFault(r FaultRule) (remove func()) {
	rule := &r
	n.faults = append(n.faults, rule)
	n.faultChanged()
	return func() {
		if i := slices.Index(n.faults, rule); i >= 0 {
			n.faults = slices.Delete(n.faults, i, i+1) // clears the vacated tail slot
			n.faultChanged()
		}
	}
}

// Partition cuts all traffic between the two node sets in both
// directions (links within a side are unaffected) and returns a heal
// function.
func (n *Network) Partition(sideA, sideB []model.SwitchID) (heal func()) {
	p := &partition{
		a: make(map[model.SwitchID]bool, len(sideA)),
		b: make(map[model.SwitchID]bool, len(sideB)),
	}
	for _, id := range sideA {
		p.a[id] = true
	}
	for _, id := range sideB {
		p.b[id] = true
	}
	n.partitions = append(n.partitions, p)
	n.faultChanged()
	return func() {
		if i := slices.Index(n.partitions, p); i >= 0 {
			n.partitions = slices.Delete(n.partitions, i, i+1) // clears the vacated tail slot
			n.faultChanged()
		}
	}
}

// send delivers msg from → to with latency; drops on failed links,
// failed nodes, active partitions, and injected loss. The message in
// flight is a pooled delivery whose pre-bound run func is what the
// simulator schedules (see delivery).
func (n *Network) send(from, to model.SwitchID, msg Message) {
	if n.downNodes[from] || n.downNodes[to] || n.downLinks[model.MakeSwitchPair(from, to)] {
		n.Drops.DownAtSend++
		return
	}
	dst, ok := n.nodes[to]
	if !ok {
		n.Drops.NoRoute++
		return
	}
	for _, p := range n.partitions {
		if p.separates(from, to) {
			n.Drops.Partition++
			return
		}
	}
	var extra time.Duration
	for _, r := range n.faults {
		if !r.matches(from, to) {
			continue
		}
		if r.Loss > 0 && n.sim.Rand().Float64() < r.Loss {
			n.Drops.InjectedLoss++
			return
		}
		extra += r.ExtraDelay
		if r.ExtraJitter > 0 {
			extra += time.Duration(n.sim.Rand().Float64() * float64(r.ExtraJitter))
		}
		if r.ReorderProb > 0 && n.sim.Rand().Float64() < r.ReorderProb {
			extra += time.Duration(n.sim.Rand().Float64() * float64(r.ReorderDelay))
		}
	}
	if n.Meter != nil {
		n.Meter(from, to, msg)
	}
	observe := n.Observer != nil
	if observe {
		if _, dataPlane := msg.(*model.Packet); dataPlane {
			observe = false
		} else {
			n.Observer(from, to, msg, false)
		}
	}
	kind := classify(from, to, n.sameGroup)
	delay := n.lat.delay(kind, n.sim.Rand()) + extra
	d := n.takeDelivery()
	d.from, d.to, d.msg, d.dst, d.observe = from, to, msg, dst, observe
	n.sim.After(delay, d.run)
}

// delivery is one message in flight. Deliveries are pooled per
// Network, and run — d.deliver, bound once when the delivery is made —
// is the func the simulator schedules, so neither a send nor its
// delivery allocates once the pool is warm.
type delivery struct {
	net      *Network
	from, to model.SwitchID
	msg      Message
	dst      Node
	observe  bool
	run      func()
}

// takeDelivery takes a delivery from the free list, or makes one.
func (n *Network) takeDelivery() *delivery {
	if k := len(n.free); k > 0 {
		d := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return d
	}
	d := &delivery{net: n}
	d.run = d.deliver
	return d
}

// deliver hands the message to its destination. It returns the
// delivery to the pool before calling the handler, so a handler that
// sends reuses it; everything after that point reads locals only.
func (d *delivery) deliver() {
	n, from, to, msg, dst, observe := d.net, d.from, d.to, d.msg, d.dst, d.observe
	d.msg, d.dst = nil, nil
	n.free = append(n.free, d)
	// Re-check failure state at delivery time.
	if n.downNodes[to] {
		n.Drops.DownAtDelivery++
		return
	}
	n.Delivered++
	if observe {
		n.Observer(from, to, msg, true)
	}
	dst.HandleMessage(from, msg)
}

// Env returns the environment for a node address.
func (n *Network) Env(id model.SwitchID) Env {
	return &simEnv{net: n, id: id}
}

// simEnv adapts the DES network to the Env interface.
type simEnv struct {
	net *Network
	id  model.SwitchID
}

func (e *simEnv) Now() time.Duration { return e.net.sim.Now().Duration() }

func (e *simEnv) After(d time.Duration, fn func()) func() {
	t := e.net.sim.After(d, fn)
	return func() { t.Stop() }
}

// Post implements Poster: the Timer is dropped, so nothing escapes.
func (e *simEnv) Post(d time.Duration, fn func()) { e.net.sim.After(d, fn) }

func (e *simEnv) Every(d time.Duration, fn func()) func() {
	t := e.net.sim.Every(d, fn)
	return func() { t.Stop() }
}

func (e *simEnv) Send(to model.SwitchID, msg Message) { e.net.send(e.id, to, msg) }

// Poster is implemented by environments (the DES simEnv) that can
// schedule a callback nobody will cancel without building a cancel
// func for it.
type Poster interface {
	Post(d time.Duration, fn func())
}

// Post schedules fn after d with no way to cancel it. On an env that
// implements Poster it allocates nothing beyond what fn itself holds;
// otherwise it is env.After with the cancel dropped. Either way fn runs
// at the same instant, in the same order, as env.After would run it.
func Post(env Env, d time.Duration, fn func()) {
	if p, ok := env.(Poster); ok {
		p.Post(d, fn)
		return
	}
	env.After(d, fn)
}

// Timer is a pending callback Arm scheduled. It is a value, so holding
// one costs nothing; the zero Timer is disarmed.
type Timer struct {
	t      sim.Timer
	cancel func() // set instead of t off the DES env
}

// Arm schedules fn after d and returns a handle that cancels it. On the
// DES env it holds the simulator's Timer and allocates nothing beyond
// what fn itself holds; otherwise it is env.After, whose cancel the
// handle keeps. Either way fn runs at the same instant, in the same
// order, as env.After would run it.
func Arm(env Env, d time.Duration, fn func()) Timer {
	if e, ok := env.(*simEnv); ok {
		return Timer{t: e.net.sim.After(d, fn)}
	}
	return Timer{cancel: env.After(d, fn)}
}

// Armed reports whether the handle holds a callback Stop has not
// cleared. The callback may have run since.
func (t *Timer) Armed() bool { return t.cancel != nil || t.t != sim.Timer{} }

// Stop cancels the callback if it has not run, and disarms the handle.
func (t *Timer) Stop() {
	if t.cancel != nil {
		t.cancel()
	} else {
		t.t.Stop()
	}
	*t = Timer{}
}

// Sequencer runs series on the DES (see sim.Series): n firings of one
// callback at non-decreasing instants, each queued by the firing
// before it, that run at the instants and in the places of the event
// order where n Posts made when the series started would run them. A
// series holds one pending event where the Posts would hold n.
type Sequencer struct{ sim *sim.Simulator }

// SequencerFor returns env's Sequencer, or nil off the DES: there a
// caller posts every firing up front.
func SequencerFor(env Env) *Sequencer {
	if e, ok := env.(*simEnv); ok {
		return &Sequencer{sim: e.net.sim}
	}
	return nil
}

// Start schedules the first of n firings of fn after d (a negative d
// is zero, as in the simulator) and reserves the places of the rest.
func (q *Sequencer) Start(d time.Duration, n int, fn func()) sim.Series {
	return q.sim.Series(q.sim.Now()+sim.Time(d), n, fn)
}

// Next schedules the series' next firing of fn d after now. Call it
// from the firing before.
func (q *Sequencer) Next(sr *sim.Series, d time.Duration, fn func()) {
	sr.Next(q.sim, q.sim.Now()+sim.Time(d), fn)
}

// Deferred hands values to one handler, each after its own delay: the
// value-carrying form of Post. A post queues its value and posts one
// pre-bound pop, so it costs no allocation once the queue has grown to
// the peak in flight. The queue is a min-heap on (instant, post order),
// and the env runs posts in that same order — the DES fires equal
// instants in scheduling order, and an env that runs a callback at once
// runs it before anything posted later — so each pop hands over exactly
// the value whose instant it is, however the delays vary. The handler
// runs at the instant and in the place of the event order where a
// closure posted per value would run.
type Deferred[T any] struct {
	env    Env
	handle func(T)
	pop    func() // d.fire, bound once
	heap   []deferredItem[T]
	seq    uint64
}

type deferredItem[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

func (a *deferredItem[T]) before(b *deferredItem[T]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// deferredMin is the least storage a Deferred allocates; beyond it the
// heap doubles when full, so it holds at most one doubling more than
// the peak number of values in flight.
const deferredMin = 16

// NewDeferred returns a queue that hands each posted value to handle.
func NewDeferred[T any](env Env, handle func(T)) *Deferred[T] {
	d := &Deferred[T]{env: env, handle: handle}
	d.pop = d.fire
	return d
}

// Post hands v to the handler after delay (a negative delay is zero,
// as in the simulator).
func (d *Deferred[T]) Post(delay time.Duration, v T) {
	delay = max(delay, 0)
	if len(d.heap) == cap(d.heap) {
		grown := make([]deferredItem[T], len(d.heap), max(deferredMin, 2*cap(d.heap)))
		copy(grown, d.heap)
		d.heap = grown
	}
	h := append(d.heap, deferredItem[T]{at: d.env.Now() + delay, seq: d.seq, v: v})
	d.seq++
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(&h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	d.heap = h
	Post(d.env, delay, d.pop)
}

// Cap returns how many values the queue's storage holds.
func (d *Deferred[T]) Cap() int { return cap(d.heap) }

// fire takes the least value off the heap and hands it to the handler.
// The value leaves the heap first, so a handler that posts is safe.
func (d *Deferred[T]) fire() {
	h := d.heap
	v := h[0].v
	last := len(h) - 1
	h[0] = h[last]
	h[last] = deferredItem[T]{}
	h = h[:last]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < len(h) && h[l].before(&h[least]) {
			least = l
		}
		if r := l + 1; r < len(h) && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	d.heap = h
	d.handle(v)
}

// blockLen is the most slots a Block allocates at once.
const blockLen = 32

// Block is storage for the messages nodes send: a message costs a slot
// carved from a shared allocation, not an object of its own. A
// message handed to Send is never written again, and receivers only
// read it and keep no pointer into it once delivered; a slot is written
// once, before its message is sent, and never reused. So a message in
// flight under a delay of any length reads what it was sent with, and
// the garbage collector frees an allocation once every message in it
// has been delivered or dropped. Allocations double from one slot up to
// blockLen, so a block little used holds little, and each keeps
// whatever capacity the allocator's size class gives it.
type Block[T any] struct{ slots []T }

// Take returns n zeroed slots that no earlier Take or Next returned. A
// request larger than blockLen gets an allocation of its own.
func (b *Block[T]) Take(n int) []T {
	if n > cap(b.slots)-len(b.slots) {
		if n > blockLen {
			return make([]T, n)
		}
		b.slots = grow[T](max(n, min(2*cap(b.slots), blockLen)))
	}
	i := len(b.slots)
	b.slots = b.slots[:i+n]
	return b.slots[i : i+n : i+n]
}

// grow allocates room for n ≤ blockLen slots with the capacity of the
// allocator's size class, as slices.Grow would, but appends from a
// zeroed array on the stack rather than from a make, so that the race
// detector's build also allocates once.
func grow[T any](n int) []T {
	var zero [blockLen]T
	return append([]T(nil), zero[:n]...)[:0]
}

// Next returns one zeroed slot (see Take).
func (b *Block[T]) Next() *T { return &b.Take(1)[0] }

// BlockFor returns the Block a node on env takes its T messages from.
// On the DES, which runs a network on one goroutine, every node shares
// one Block per type, so consecutive messages sit side by side as one
// allocator would place them; blocks of their own would scatter them
// over every node's current block, which cost replay-lazy 5–9 % of its
// flows per second. Any other env gets a Block per call, since its
// nodes may run concurrently.
func BlockFor[T any](env Env) *Block[T] {
	e, ok := env.(*simEnv)
	if !ok {
		return new(Block[T])
	}
	key := reflect.TypeFor[T]()
	b, ok := e.net.blocks[key].(*Block[T])
	if !ok {
		b = new(Block[T])
		e.net.blocks[key] = b
	}
	return b
}

// ElidableTask is the handle of a periodic task that may fold
// quiescent rounds analytically (see sim.Elider). The zero-cost
// fallback returned for environments without elision support never
// folds, so Wake is a no-op and CreditedThrough stays zero.
type ElidableTask interface {
	// Wake re-materializes the task's timer: past folded rounds are
	// credited and the next round runs as a real event.
	Wake()
	// Stop settles any pending fold and cancels the task.
	Stop()
	// CreditedThrough returns the last round boundary settled
	// analytically (zero if the task never folded).
	CreditedThrough() time.Duration
}

// ElidableScheduler is implemented by environments (the DES simEnv)
// that support periodic-round elision. quiet reports, after each real
// round, how many upcoming rounds are provably no-ops; credit settles
// that many rounds analytically.
type ElidableScheduler interface {
	EveryElidable(d time.Duration, run func(), quiet func() int, credit func(rounds int)) ElidableTask
}

// EveryElidableOrReal registers run as an elidable periodic task when
// env supports it, degrading to a plain Every otherwise. Nodes use it
// so elision stays an optimization: behavior with the fallback is the
// pre-elision behavior exactly.
func EveryElidableOrReal(env Env, d time.Duration, run func(), quiet func() int, credit func(rounds int)) ElidableTask {
	if es, ok := env.(ElidableScheduler); ok {
		return es.EveryElidable(d, run, quiet, credit)
	}
	cancel := env.Every(d, run)
	return &realTask{cancel: cancel}
}

// realTask is the non-eliding fallback of EveryElidableOrReal.
type realTask struct{ cancel func() }

func (t *realTask) Wake() {}
func (t *realTask) Stop() {
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
}
func (t *realTask) CreditedThrough() time.Duration { return 0 }

// elidedTask adapts sim.Elider to ElidableTask.
type elidedTask struct{ el *sim.Elider }

func (t *elidedTask) Wake() { t.el.Wake() }
func (t *elidedTask) Stop() { t.el.Stop() }
func (t *elidedTask) CreditedThrough() time.Duration {
	return t.el.CreditedThrough().Duration()
}

// EveryElidable implements ElidableScheduler on the DES environment.
func (e *simEnv) EveryElidable(d time.Duration, run func(), quiet func() int, credit func(rounds int)) ElidableTask {
	return &elidedTask{el: e.net.sim.EveryElidable(d, run, quiet, credit)}
}
