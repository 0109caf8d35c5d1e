// Package asim is the event-driven, continuous-time companion to the
// synchronous simulator: the substrate for the paper's asynchrony
// discussion (Section 2.3.4, "Dealing with asynchrony") and for the
// BitTorrent study it reports as ongoing work in Section 4, which used
// "asynchronous simulations".
//
// Model: time is continuous. Each node has an upload rate and a download
// rate in blocks per unit time; a node uploads one block at a time
// (serial upload port) and may receive up to DownloadPorts blocks
// concurrently. Following the paper's tail-link bandwidth model, a
// transfer from u to v proceeds at min(upRate(u), downRate(v)/active(v)),
// approximated here by reserving one download port at the receiver and
// using min(upRate(u), downRate(v)/DownloadPorts) — each port carries an
// equal share. With all rates 1 and one port, durations are 1 and the
// model coincides with the synchronous simulator's tick.
//
// A Protocol is sender-driven: whenever a node's upload port is free the
// engine asks it for the next (receiver, block) pair. The engine tracks
// why a node went idle — nothing to offer vs. all targets busy — and
// wakes it on exactly the events that can change that answer, so runs
// stay near O(events·degree).
//
// # Fault injection
//
// Config.Fault attaches a fault.Plan: crash arrivals become engine
// events, a crash aborts every transfer in flight to or from the victim
// (the sender's upload port and the receiver's download port are both
// restored, and the affected peers are re-woken), and each completing
// transfer may be lost or corrupted at delivery time. Protocols observe
// liveness through State.Alive and, if they implement FaultAware,
// receive OnCrash/OnRejoin/OnLoss callbacks. With a nil Plan the engine
// is byte-identical to the fault-free implementation.
//
// # Adversarial behavior
//
// Config.Adversary attaches an adversary.Plan. Refusals happen at
// upload start: a node whose strategy refuses (free-rider, completed
// defector, throttler in a closed window) is parked without polling
// the protocol — a node knows its own strategy — and a throttler is
// re-woken when its window reopens. In-flight misbehavior happens at
// delivery: a false-advertiser's transfer stalls and a corrupter's
// fails block verification, in both cases wasting the receiver's
// download port for the transfer's duration. Protocols observe the
// drops through AdversaryAware; completion switches to the honest-only
// criterion. With a nil Plan the engine is byte-identical to the
// compliant implementation.
package asim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/bitset"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
)

// Unlimited download ports.
const Unlimited = 0

// Config describes an asynchronous simulation instance.
type Config struct {
	// Nodes is the total node count (node 0 = server, holds all blocks).
	Nodes int
	// Blocks is the file size in blocks.
	Blocks int
	// UploadRate[v] is node v's upload bandwidth in blocks per unit
	// time. nil means rate 1 everywhere.
	UploadRate []float64
	// DownloadRate[v] is node v's download bandwidth. nil means rate
	// equal to the upload rate ("tail links", D = U).
	DownloadRate []float64
	// DownloadPorts bounds concurrent receives per node (Unlimited = no
	// bound; each concurrent receive still shares DownloadRate).
	DownloadPorts int
	// AuditWorkers is the worker pool width RunAudit replays the
	// recorded trace at. 0 and 1 both mean inline sequential replay; the
	// audit verdict and error text are byte-identical for every value.
	AuditWorkers int
	// MaxTime aborts runaway protocols. 0 selects a generous default.
	MaxTime float64
	// RecordTrace keeps every transfer (delivered, lost, or corrupted)
	// in the result so RunAudit can replay the run. Costs memory.
	RecordTrace bool
	// Fault attaches a fault-injection plan (crashes, rejoins, transfer
	// loss). nil runs the reliable engine unchanged. A Plan is
	// single-use: build one per run.
	Fault *fault.Plan
	// Adversary attaches a behavior-injection plan (free-riders,
	// throttlers, false-advertisers, corrupters, defectors). nil runs
	// the compliant engine unchanged. Like Fault, a Plan is single-use
	// and composes with it: the adversary rules on each delivery first.
	Adversary *adversary.Plan
	// Arrivals attaches an open-system plan (Poisson peer arrivals,
	// departures at completion or selfish early exit, seed policy).
	// Nodes then becomes the capacity — an upper bound on cumulative
	// arrivals — and the run ends with a stability verdict in
	// Result.Open instead of a closed-batch completion. nil runs the
	// closed engine unchanged. Single-use, and mutually exclusive with
	// Fault and Adversary for now.
	Arrivals *arrival.Plan
	// Checkpoint enables periodic crash-safe snapshots: every
	// Checkpoint.Every handled events the full engine state is written
	// atomically to Checkpoint.Path. Resume continues such a run with a
	// byte-identical remainder. nil disables checkpointing. Requires the
	// protocol to implement CheckpointableProtocol.
	Checkpoint *checkpoint.Policy
}

// Validate checks the raw configuration without mutating it. nil rate
// slices are valid — withDefaults fills them with all-ones (which
// trivially pass the per-entry checks).
func (c *Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("asim: Nodes = %d, need >= 1", c.Nodes)
	}
	if c.Blocks < 1 {
		return fmt.Errorf("asim: Blocks = %d, need >= 1", c.Blocks)
	}
	if c.UploadRate != nil {
		if len(c.UploadRate) != c.Nodes {
			return fmt.Errorf("asim: UploadRate has %d entries for %d nodes", len(c.UploadRate), c.Nodes)
		}
		for v, r := range c.UploadRate {
			if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("asim: UploadRate[%d] = %v must be positive and finite", v, r)
			}
		}
	}
	if c.DownloadRate != nil {
		if len(c.DownloadRate) != c.Nodes {
			return fmt.Errorf("asim: DownloadRate has %d entries for %d nodes", len(c.DownloadRate), c.Nodes)
		}
		for v, r := range c.DownloadRate {
			if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("asim: DownloadRate[%d] = %v must be positive and finite", v, r)
			}
		}
	}
	if c.DownloadPorts < 0 {
		return fmt.Errorf("asim: DownloadPorts = %d, need >= 0", c.DownloadPorts)
	}
	if c.AuditWorkers < 0 {
		return fmt.Errorf("asim: AuditWorkers = %d, need >= 0", c.AuditWorkers)
	}
	if c.MaxTime < 0 || math.IsNaN(c.MaxTime) || math.IsInf(c.MaxTime, 0) {
		return fmt.Errorf("asim: MaxTime = %v must be finite and >= 0", c.MaxTime)
	}
	if c.Arrivals != nil {
		if c.Nodes < 2 {
			return fmt.Errorf("asim: open-system mode needs Nodes >= 2 (capacity for at least one arrival)")
		}
		if c.Fault != nil {
			return fmt.Errorf("asim: Arrivals cannot combine with Fault (open-system churn owns the liveness mask)")
		}
		if c.Adversary != nil {
			return fmt.Errorf("asim: Arrivals cannot combine with Adversary (open-system completion semantics differ)")
		}
	}
	return nil
}

// withDefaults returns a copy with zero fields replaced by the
// documented defaults. The configuration must already be valid.
func (c Config) withDefaults() Config {
	if c.UploadRate == nil {
		c.UploadRate = make([]float64, c.Nodes)
		for i := range c.UploadRate {
			c.UploadRate[i] = 1
		}
	}
	if c.DownloadRate == nil {
		c.DownloadRate = append([]float64(nil), c.UploadRate...)
	}
	if c.MaxTime == 0 {
		c.MaxTime = 100 * float64(c.Blocks+c.Nodes)
	}
	return c
}

// State exposes read-only ownership and progress to protocols.
type State struct {
	n, k     int
	have     []*bitset.Set
	inFlight []map[int32]*event // blocks currently being received, per node
	complete int
	now      float64

	// present lists the alive node ids in ascending order — a pure
	// function of the alive mask (0..n-1 without a fault or arrival
	// plan), kept in step by setAlive so complete-overlay target picks
	// and wake-ups cost O(peers present), not O(n).
	present []int32

	// Fault-layer view; nil/zero without a fault plan.
	alive         []bool
	aliveClients  int
	pendingRejoin int

	// Adversary-layer view; nil/zero without an adversary plan.
	honest              []bool
	honestClients       int
	completeHonest      int
	aliveHonest         int
	pendingRejoinHonest int
}

// N returns the node count.
func (s *State) N() int { return s.n }

// K returns the block count.
func (s *State) K() int { return s.k }

// Now returns the current simulation time.
func (s *State) Now() float64 { return s.now }

// Has reports whether v holds block b.
func (s *State) Has(v, b int) bool { return s.have[v].Has(b) }

// Blocks returns v's block set (read-only).
func (s *State) Blocks(v int) *bitset.Set { return s.have[v] }

// InFlightTo reports whether block b is currently being received by v.
func (s *State) InFlightTo(v, b int) bool {
	_, ok := s.inFlight[v][int32(b)]
	return ok
}

// InFlightCount returns the number of blocks currently arriving at v.
func (s *State) InFlightCount(v int) int { return len(s.inFlight[v]) }

// Alive reports whether node v is currently up. Without a fault plan
// every node is always alive.
func (s *State) Alive(v int) bool { return s.alive == nil || s.alive[v] }

// Present returns the ids of the nodes currently up, ascending. The
// slice is owned by the engine: read it, never modify or retain it.
func (s *State) Present() []int32 { return s.present }

// setAlive flips node v's liveness and keeps the present index in
// step (a binary search plus an O(|present|) shift).
func (s *State) setAlive(v int, up bool) {
	s.alive[v] = up
	i, found := slices.BinarySearch(s.present, int32(v))
	switch {
	case up && !found:
		s.present = slices.Insert(s.present, i, int32(v))
	case !up && found:
		s.present = slices.Delete(s.present, i, i+1)
	}
}

// rebuildPresent recomputes the present index from the alive mask, as
// a restored snapshot requires (the index is derived, never encoded).
func (s *State) rebuildPresent() {
	s.present = s.present[:0]
	for v := 0; v < s.n; v++ {
		if s.Alive(v) {
			s.present = append(s.present, int32(v))
		}
	}
}

// AliveClients returns the number of clients currently up (n-1 without
// a fault plan).
func (s *State) AliveClients() int {
	if s.alive == nil {
		return s.n - 1
	}
	return s.aliveClients
}

// Adversarial reports whether an adversary plan is active — the cue
// for defensive protocols to build their quarantine tables.
func (s *State) Adversarial() bool { return s.honest != nil }

// Honest reports whether node v plays by the protocol. Without an
// adversary plan every node is honest.
func (s *State) Honest(v int) bool { return s.honest == nil || s.honest[v] }

// AllClientsComplete reports completion: every client still part of the
// system holds the whole file (permanently departed nodes are excluded;
// nodes scheduled to rejoin count as pending). Under an adversary plan
// only *honest* clients count — a free-rider that starves under barter
// must not hold the swarm hostage.
func (s *State) AllClientsComplete() bool {
	if s.honest != nil {
		if s.alive == nil {
			return s.completeHonest == s.honestClients
		}
		return s.completeHonest == s.aliveHonest && s.pendingRejoinHonest == 0
	}
	if s.alive == nil {
		return s.complete == s.n-1
	}
	return s.complete == s.aliveClients && s.pendingRejoin == 0
}

// Upload is a protocol's answer to "what should this node send next".
type Upload struct {
	To    int
	Block int
}

// Protocol drives the simulation.
type Protocol interface {
	// NextUpload is invoked when node u's upload port is free. Returning
	// ok = false parks u until an event that may change the answer (u
	// gains a block, a download port near u frees, or a timer fires).
	// The returned target must need the block, have a free port, and be
	// alive; the engine validates and errors out otherwise.
	NextUpload(u int, s *State) (Upload, bool)
	// Wakeups returns protocol timer periods; the engine calls OnTimer
	// every period until completion. Nil means no timers.
	Wakeups() []float64
	// OnTimer is called when a timer fires (e.g. a BitTorrent choke
	// recomputation). idx is the index into Wakeups().
	OnTimer(idx int, s *State)
	// Neighbors returns the nodes that might upload to v (v's in-edge
	// peers), or nil for "anyone" (complete overlays). The engine uses
	// it to wake exactly the parked nodes whose answer can have changed
	// when a block lands at v.
	Neighbors(v int) []int32
	// OnDeliver is called after block b lands at node to — the hook
	// BitTorrent-style protocols use for download-rate accounting and
	// rarity statistics.
	OnDeliver(from, to, block int, s *State)
}

// FaultAware is optionally implemented by protocols that want fault
// notifications beyond what the State view exposes — typically to keep
// rarity statistics honest or to drop dead peers from choke lists.
type FaultAware interface {
	// OnCrash is called after node v's state is fully torn down (alive
	// cleared, in-flight transfers aborted, ports restored).
	OnCrash(v int, s *State)
	// OnRejoin is called after node v rejoined; wiped reports whether
	// it came back with an empty cache.
	OnRejoin(v int, wiped bool, s *State)
	// OnLoss is called when a transfer is dropped at delivery time
	// (lost in flight, or corrupt = delivered but discarded).
	OnLoss(from, to, block int, corrupt bool, s *State)
}

// AdversaryAware is optionally implemented by protocols that want to
// observe adversary-faulted deliveries — typically to score and
// quarantine the offending sender.
type AdversaryAware interface {
	// OnAdversaryDrop is called when sender from's strategy denied the
	// delivery of block to node to: corrupt reports garbage that failed
	// verification (a corrupter), false a transfer that stalled (a
	// false-advertiser). The receiver's download port was held for the
	// whole transfer either way.
	OnAdversaryDrop(from, to, block int, corrupt bool, s *State)
}

// TransferRecord is one transfer as recorded by Config.RecordTrace.
type TransferRecord struct {
	Start, End      float64
	From, To, Block int32
	// Lost marks a transfer dropped at delivery time; Corrupt
	// additionally marks it as delivered-but-discarded. Adversary marks
	// the sender's strategy — not the network — as the cause (Corrupt
	// then distinguishes a corrupter's garbage from a
	// false-advertiser's stall).
	Lost      bool
	Corrupt   bool
	Adversary bool
}

// Result reports a finished asynchronous run.
type Result struct {
	// CompletionTime is when the last client finished (time units).
	CompletionTime float64
	// ClientCompletion[v] is when client v finished (most recent
	// completion under churn).
	ClientCompletion []float64
	// Transfers is the number of block deliveries.
	Transfers int

	// Fault-layer outcomes; zero without a fault plan.

	// Lost counts transfers dropped in flight; Corrupt counts transfers
	// delivered but discarded.
	Lost, Corrupt int
	// FaultLog lists applied crash/rejoin events (continuous Time).
	FaultLog []fault.Event
	// Trace holds every finished transfer when RecordTrace is set,
	// ordered by End time (aborted transfers are not recorded: their
	// bandwidth was reclaimed by the crash teardown).
	Trace []TransferRecord
	// FinalHave snapshots every node's final block set (RecordTrace).
	FinalHave []*bitset.Set
	// FinalAlive is the final liveness mask (RecordTrace + fault or
	// arrival plan).
	FinalAlive []bool

	// Open holds the open-system verdict and robustness instrumentation;
	// nil for closed-batch runs. In open mode FaultLog carries the
	// Arrive/Depart events.
	Open *arrival.OpenResult

	// Adversary-layer outcomes; zero without an adversary plan.

	// Strategies records each node's assigned strategy (index = node
	// id); nil for compliant runs.
	Strategies []adversary.Strategy
	// AdvStalled counts transfers a false-advertiser claimed but never
	// delivered; AdvCorrupt counts a corrupter's transfers that failed
	// block verification and were discarded. (Refusals happen at upload
	// start in this engine and consume no bandwidth, so they have no
	// counter here.)
	AdvStalled, AdvCorrupt int
	// HonestUseful counts deliveries to honest clients; HonestWasted
	// counts honest clients' download-port time slots wasted by
	// adversary-faulted transfers.
	HonestUseful, HonestWasted int
}

// HonestStallRate returns the fraction of honest clients' spent
// download slots that an adversary wasted (0 for compliant runs).
func (r *Result) HonestStallRate() float64 {
	if r.HonestUseful+r.HonestWasted == 0 {
		return 0
	}
	return float64(r.HonestWasted) / float64(r.HonestUseful+r.HonestWasted)
}

// ErrMaxTime is returned when the protocol fails to complete in time.
var ErrMaxTime = errors.New("asim: exceeded MaxTime before completion")

type eventKind int

const (
	evComplete eventKind = iota + 1 // a transfer finished
	evTimer
	evCrash   // a fault-plan crash arrival
	evRejoin  // a crashed node returns
	evAdvWake // a throttler's upload window reopens
	evArrive  // an open-system peer arrival (internal/arrival)
	evDepart  // an open-system peer departs for good
)

type event struct {
	at   float64
	seq  int // tie-break for determinism
	kind eventKind

	// evComplete fields.
	from, to, block int
	start           float64
	cancelled       bool // aborted by a crash; skip on pop

	// evTimer field.
	timer int

	// evRejoin / evAdvWake field.
	node int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Run executes the protocol to completion.
func Run(cfg Config, p Protocol) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes == 1 {
		return &Result{ClientCompletion: make([]float64, 1)}, nil
	}
	c := cfg.withDefaults()
	eng, err := newEngine(c, p)
	if err != nil {
		return nil, err
	}
	// Kick every present node once; most will park immediately.
	for _, v := range eng.st.present {
		if err := eng.tryStartUpload(int(v)); err != nil {
			return nil, err
		}
	}
	return eng.loop()
}

// newEngine builds the engine for an already-validated, defaulted
// config: state, result, plans acquired, timers and the first crash
// arrival scheduled. The caller kicks the nodes (fresh run) or restores
// a snapshot (resume).
func newEngine(c Config, p Protocol) (*engine, error) {
	st := &State{
		n:        c.Nodes,
		k:        c.Blocks,
		have:     make([]*bitset.Set, c.Nodes),
		inFlight: make([]map[int32]*event, c.Nodes),
	}
	for v := range st.have {
		st.have[v] = bitset.New(c.Blocks)
		st.inFlight[v] = make(map[int32]*event)
	}
	for b := 0; b < c.Blocks; b++ {
		st.have[0].Add(b)
	}
	res := &Result{ClientCompletion: make([]float64, c.Nodes)}
	if c.RecordTrace {
		// A full run delivers exactly (n-1)*k useful blocks; reserving
		// that floor up front keeps steady-state recording out of the
		// append-growth path.
		res.Trace = make([]TransferRecord, 0, (c.Nodes-1)*c.Blocks)
	}

	eng := &engine{
		cfg:       c,
		st:        st,
		proto:     p,
		res:       res,
		uploading: make([]bool, c.Nodes),
		parked:    make([]bool, c.Nodes),
		curUpload: make([]*event, c.Nodes),
	}
	if c.Fault != nil {
		if err := c.Fault.Acquire(); err != nil {
			return nil, err
		}
		eng.faultAware, _ = p.(FaultAware)
		st.alive = make([]bool, c.Nodes)
		for i := range st.alive {
			st.alive[i] = true
		}
		st.aliveClients = c.Nodes - 1
	}
	if c.Arrivals != nil {
		if err := c.Arrivals.Acquire(); err != nil {
			return nil, err
		}
		eng.faultAware, _ = p.(FaultAware)
		eng.oa = newAsimArrivals(c.Arrivals, c)
		// Only the persistent server is present at time 0; clients
		// appear through the arrival stream with fresh ids.
		st.alive = make([]bool, c.Nodes)
		st.alive[0] = true
	}
	// Index capacity n, so joins never reallocate it mid-run.
	st.present = make([]int32, 0, c.Nodes)
	st.rebuildPresent()
	if c.Adversary != nil {
		if c.Adversary.N() != c.Nodes {
			return nil, fmt.Errorf("asim: adversary plan built for %d nodes, config has %d", c.Adversary.N(), c.Nodes)
		}
		if err := c.Adversary.Acquire(); err != nil {
			return nil, err
		}
		eng.adv = c.Adversary
		eng.advAware, _ = p.(AdversaryAware)
		eng.advWakePending = make([]bool, c.Nodes)
		st.honest = make([]bool, c.Nodes)
		for v := range st.honest {
			st.honest[v] = c.Adversary.Honest(v)
		}
		st.honestClients = c.Nodes - 1 - c.Adversary.Count()
		st.aliveHonest = st.honestClients
		res.Strategies = c.Adversary.Strategies()
	}
	heap.Init(&eng.queue)
	for i, period := range p.Wakeups() {
		if period <= 0 {
			return nil, fmt.Errorf("asim: timer %d period %v must be positive", i, period)
		}
		tev := eng.newEvent()
		tev.at, tev.kind, tev.timer = period, evTimer, i
		eng.schedule(tev)
	}
	if c.Fault != nil {
		eng.scheduleNextCrash()
	}
	if c.Arrivals != nil {
		eng.scheduleNextArrival()
	}
	return eng, nil
}

// finish stamps the completion time and, under RecordTrace, the final
// ownership and liveness snapshots.
func (e *engine) finish() *Result {
	c, st, res := e.cfg, e.st, e.res
	res.CompletionTime = st.now
	if c.RecordTrace {
		res.FinalHave = make([]*bitset.Set, c.Nodes)
		for v := range res.FinalHave {
			res.FinalHave[v] = st.have[v].Clone()
		}
		if st.alive != nil {
			res.FinalAlive = append([]bool(nil), st.alive...)
		}
	}
	return res
}

// loop drains the event queue to completion, checkpointing at handled-
// event boundaries when configured.
func (e *engine) loop() (*Result, error) {
	eng, c, st, p := e, e.cfg, e.st, e.proto
	for eng.queue.Len() > 0 {
		ev := heap.Pop(&eng.queue).(*event)
		if ev.cancelled {
			// Aborted by a crash; its inFlight/curUpload references were
			// cleared at cancellation time.
			eng.release(ev)
			continue
		}
		if ev.at > c.MaxTime {
			if eng.oa != nil {
				// Bounded-run truncation: an open run that outlives its
				// budget is reported as Unstable, never as an error.
				return eng.finishOpen(arrival.VerdictUnstable, arrival.ReasonBudget), nil
			}
			if st.honest != nil {
				return nil, fmt.Errorf("%w (t=%.2f, honest clients complete: %d/%d)",
					ErrMaxTime, ev.at, st.completeHonest, st.honestClients)
			}
			return nil, fmt.Errorf("%w (t=%.2f, clients complete: %d/%d)",
				ErrMaxTime, ev.at, st.complete, c.Nodes-1)
		}
		st.now = ev.at
		switch ev.kind {
		case evComplete:
			if err := eng.finishTransfer(ev); err != nil {
				return nil, err
			}
			if eng.oa == nil && st.AllClientsComplete() {
				return eng.finish(), nil
			}
		case evTimer:
			p.OnTimer(ev.timer, st)
			// A choke rotation can create work anywhere: wake everyone
			// parked (parked nodes are alive, so present covers them).
			for _, v := range st.present {
				if eng.parked[v] {
					if err := eng.tryStartUpload(int(v)); err != nil {
						return nil, err
					}
				}
			}
			period := p.Wakeups()[ev.timer]
			tev := eng.newEvent()
			tev.at, tev.kind, tev.timer = st.now+period, evTimer, ev.timer
			eng.schedule(tev)
		case evCrash:
			c.Fault.TakeCrash()
			if err := eng.applyCrash(); err != nil {
				return nil, err
			}
			// Removing the last incomplete client can finish the run.
			if st.AllClientsComplete() {
				return eng.finish(), nil
			}
			eng.scheduleNextCrash()
		case evRejoin:
			if err := eng.applyRejoin(ev.node); err != nil {
				return nil, err
			}
			if st.AllClientsComplete() {
				return eng.finish(), nil
			}
		case evAdvWake:
			eng.advWakePending[ev.node] = false
			if err := eng.tryStartUpload(ev.node); err != nil {
				return nil, err
			}
		case evArrive:
			c.Arrivals.TakeArrival()
			if err := eng.applyArrive(); err != nil {
				return nil, err
			}
			eng.scheduleNextArrival()
		case evDepart:
			if err := eng.applyDepart(ev.node); err != nil {
				return nil, err
			}
		}
		if eng.oa != nil {
			// Open runs end in a verdict: the watchdog truncates a
			// diverging or starving swarm, and the drain check requires
			// the arrival pool to be exhausted first.
			if reason := eng.oa.observe(st); reason != arrival.ReasonNone {
				return eng.finishOpen(arrival.VerdictUnstable, reason), nil
			}
			if eng.oa.drained(st) {
				return eng.finishOpen(arrival.VerdictDrained, arrival.ReasonNone), nil
			}
		}
		// Fully handled; nothing retains the event past this point.
		eng.release(ev)
		eng.handled++
		if err := eng.maybeCheckpoint(); err != nil {
			return nil, err
		}
	}
	if eng.oa != nil {
		// The queue can drain through cancelled events (a departure
		// aborting the last in-flight transfers), so re-check the drain
		// criterion before ruling the run stuck.
		switch {
		case eng.oa.drained(st):
			return eng.finishOpen(arrival.VerdictDrained, arrival.ReasonNone), nil
		case eng.oa.truncated:
			return eng.finishOpen(arrival.VerdictUnstable, arrival.ReasonBudget), nil
		default:
			// Peers are present and incomplete but no event will ever
			// fire again: permanent protocol starvation.
			return eng.finishOpen(arrival.VerdictUnstable, arrival.ReasonStarvation), nil
		}
	}
	if st.honest != nil {
		return nil, fmt.Errorf("%w (event queue drained, honest clients complete: %d/%d)",
			ErrMaxTime, st.completeHonest, st.honestClients)
	}
	return nil, fmt.Errorf("%w (event queue drained, clients complete: %d/%d)",
		ErrMaxTime, st.complete, c.Nodes-1)
}

type engine struct {
	cfg   Config
	st    *State
	proto Protocol
	res   *Result
	queue eventQueue
	seq   int
	// handled counts fully processed (non-cancelled) events; checkpoints
	// fire at multiples of Config.Checkpoint.Every.
	handled int

	uploading  []bool   // upload port busy
	parked     []bool   // NextUpload returned false; awaiting a wake event
	curUpload  []*event // pending completion event of each node's upload
	faultAware FaultAware
	oa         *asimArrivals // open-system bookkeeping; nil in closed runs

	adv            *adversary.Plan
	advAware       AdversaryAware
	advWakePending []bool // an evAdvWake is already queued for this node

	// free recycles popped events: the loop pops, handles, and releases
	// each event, so the steady state churns a fixed working set instead
	// of allocating one event per transfer.
	free []*event
}

// newEvent returns a zeroed event, reusing a released one when
// available.
func (e *engine) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = event{}
		return ev
	}
	return &event{}
}

// release returns a popped, fully handled event to the free list. The
// caller must ensure no queue, inFlight, or curUpload reference
// remains.
func (e *engine) release(ev *event) { e.free = append(e.free, ev) }

func (e *engine) schedule(ev *event) {
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.queue, ev)
}

// scheduleNextCrash turns the plan's next Poisson arrival into an
// engine event. Arrivals beyond MaxTime are discarded — they could
// never take effect and must not trip the timeout check.
func (e *engine) scheduleNextCrash() {
	at, ok := e.cfg.Fault.NextCrash()
	if !ok || at > e.cfg.MaxTime {
		return
	}
	ev := e.newEvent()
	ev.at, ev.kind = at, evCrash
	e.schedule(ev)
}

// applyCrash picks a victim and tears it down: the node goes dark, its
// outgoing upload and every transfer in flight toward it are aborted,
// and the ports and bandwidth those transfers held are restored. Peers
// whose options changed (freed senders, freed download ports) are
// re-woken.
func (e *engine) applyCrash() error {
	st := e.st
	v := e.cfg.Fault.PickVictim(st.n,
		func(v int) bool { return st.alive[v] },
		func(v int) int { return st.have[v].Count() })
	if v < 0 {
		return nil // nobody left to kill
	}
	wakeSenders, freedReceiver := e.teardown(v)

	ev := fault.Event{Time: st.now, Node: int32(v), Kind: fault.Crash}
	e.res.FaultLog = append(e.res.FaultLog, ev)
	if delay, ok := e.cfg.Fault.Rejoins(); ok {
		st.pendingRejoin++
		if st.honest != nil && st.honest[v] {
			st.pendingRejoinHonest++
		}
		rev := e.newEvent()
		rev.at, rev.kind, rev.node = st.now+delay, evRejoin, v
		e.schedule(rev)
	}
	if e.faultAware != nil {
		e.faultAware.OnCrash(v, st)
	}

	// Re-wake with the state fully consistent. Freed senders first (in
	// ascending order for determinism), then the in-neighbors of the
	// receiver whose download port was released.
	for _, u := range wakeSenders {
		if err := e.tryStartUpload(u); err != nil {
			return err
		}
	}
	if freedReceiver >= 0 && st.alive[freedReceiver] {
		if err := e.wakeInNeighbors(freedReceiver); err != nil {
			return err
		}
	}
	return nil
}

// teardown takes node v out of the swarm — shared by crashes and
// open-system departures. The node goes dark, its outgoing upload and
// every transfer in flight toward it are aborted, and the ports those
// transfers held are restored. It returns the senders whose upload
// ports freed (sorted ascending) and the receiver whose download port
// freed (-1 if none); the caller re-wakes them once its own
// bookkeeping is consistent.
func (e *engine) teardown(v int) (wakeSenders []int, freedReceiver int) {
	st := e.st
	st.setAlive(v, false)
	st.aliveClients--
	if st.have[v].Full() {
		st.complete--
	}
	if st.honest != nil && st.honest[v] {
		st.aliveHonest--
		if st.have[v].Full() {
			st.completeHonest--
		}
	}
	e.parked[v] = false

	freedReceiver = -1
	// Abort v's outgoing transfer: the receiver's download port frees.
	if out := e.curUpload[v]; out != nil {
		out.cancelled = true
		e.curUpload[v] = nil
		e.uploading[v] = false
		delete(st.inFlight[out.to], int32(out.block))
		freedReceiver = out.to
	}
	// Abort transfers in flight toward v: each sender's port frees. The
	// per-sender mutations are independent (a sender has at most one
	// upload in flight), and wakeSenders is sorted below before any
	// order-sensitive use, so map order cannot leak into the trace.
	for _, in := range st.inFlight[v] { //lint:ordered wakeSenders sorted before use
		in.cancelled = true
		e.uploading[in.from] = false
		e.curUpload[in.from] = nil
		wakeSenders = append(wakeSenders, in.from)
	}
	sort.Ints(wakeSenders)
	clear(st.inFlight[v])
	return wakeSenders, freedReceiver
}

// applyRejoin brings a crashed node back, optionally with an empty
// cache, and re-wakes it plus the peers that may now serve it.
func (e *engine) applyRejoin(v int) error {
	st := e.st
	st.setAlive(v, true)
	st.aliveClients++
	st.pendingRejoin--
	if st.honest != nil && st.honest[v] {
		st.aliveHonest++
		st.pendingRejoinHonest--
	}
	wiped := e.cfg.Fault.RejoinWipes()
	if wiped {
		st.have[v].Clear()
		e.res.ClientCompletion[v] = 0
	} else if st.have[v].Full() {
		st.complete++
		if st.honest != nil && st.honest[v] {
			st.completeHonest++
		}
	}
	e.res.FaultLog = append(e.res.FaultLog, fault.Event{
		Time: st.now, Node: int32(v), Kind: fault.Rejoin, Wiped: wiped,
	})
	if e.faultAware != nil {
		e.faultAware.OnRejoin(v, wiped, st)
	}
	if err := e.tryStartUpload(v); err != nil {
		return err
	}
	// Every download port at v is free again: peers parked for lack of
	// targets may now have one.
	return e.wakeInNeighbors(v)
}

// wakeInNeighbors re-polls the parked in-edge peers of v (or every
// parked node on complete overlays, in ascending id order: parked nodes
// are alive, so walking the present index visits exactly them).
func (e *engine) wakeInNeighbors(v int) error {
	if nbrs := e.proto.Neighbors(v); nbrs != nil {
		for _, u := range nbrs {
			if e.parked[u] {
				if err := e.tryStartUpload(int(u)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, u := range e.st.present {
		if e.parked[u] {
			if err := e.tryStartUpload(int(u)); err != nil {
				return err
			}
		}
	}
	return nil
}

// tryStartUpload polls the protocol for node u if its port is free.
func (e *engine) tryStartUpload(u int) error {
	if e.uploading[u] {
		return nil
	}
	if e.st.alive != nil && !e.st.alive[u] {
		return nil // dead nodes neither poll nor park
	}
	if e.st.have[u].Count() == 0 {
		e.parked[u] = true
		return nil
	}
	if e.adv != nil && e.adv.Refuses(u, e.st.now) {
		// The node's own strategy declines to upload; the protocol is
		// not even polled. A throttler is re-woken when its window
		// reopens; free-riders and completed defectors park for good.
		e.parked[u] = true
		if at := e.adv.RetryAt(u); !math.IsInf(at, 1) && !e.advWakePending[u] {
			e.advWakePending[u] = true
			wev := e.newEvent()
			wev.at, wev.kind, wev.node = at, evAdvWake, u
			e.schedule(wev)
		}
		return nil
	}
	up, ok := e.proto.NextUpload(u, e.st)
	if !ok {
		e.parked[u] = true
		return nil
	}
	if err := e.validate(u, up); err != nil {
		return err
	}
	if e.adv != nil {
		e.adv.NoteUpload(u, e.st.now)
	}
	e.parked[u] = false
	e.uploading[u] = true
	rate := e.cfg.UploadRate[u]
	down := e.cfg.DownloadRate[up.To]
	if e.cfg.DownloadPorts > 0 {
		down /= float64(e.cfg.DownloadPorts)
	}
	if down < rate {
		rate = down
	}
	ev := e.newEvent()
	ev.at, ev.kind = e.st.now+1/rate, evComplete
	ev.from, ev.to, ev.block = u, up.To, up.Block
	ev.start = e.st.now
	e.st.inFlight[up.To][int32(up.Block)] = ev
	e.curUpload[u] = ev
	e.schedule(ev)
	return nil
}

func (e *engine) validate(u int, up Upload) error {
	switch {
	case up.To < 0 || up.To >= e.st.n:
		return fmt.Errorf("asim: node %d uploads to out-of-range node %d", u, up.To)
	case up.To == u:
		return fmt.Errorf("asim: node %d uploads to itself", u)
	case up.Block < 0 || up.Block >= e.st.k:
		return fmt.Errorf("asim: node %d uploads out-of-range block %d", u, up.Block)
	case !e.st.have[u].Has(up.Block):
		return fmt.Errorf("asim: node %d does not hold block %d", u, up.Block)
	case e.st.have[up.To].Has(up.Block):
		return fmt.Errorf("asim: node %d already holds block %d", up.To, up.Block)
	case e.st.InFlightTo(up.To, up.Block):
		return fmt.Errorf("asim: block %d already in flight to node %d", up.Block, up.To)
	}
	if e.st.alive != nil && !e.st.alive[up.To] {
		return fmt.Errorf("asim: node %d uploads to dead node %d", u, up.To)
	}
	if e.cfg.DownloadPorts != Unlimited && len(e.st.inFlight[up.To]) >= e.cfg.DownloadPorts {
		return fmt.Errorf("asim: node %d has no free download port", up.To)
	}
	return nil
}

// finishTransfer lands a block and wakes exactly the nodes whose
// NextUpload answer may have changed: the sender (its port is free), the
// receiver (new inventory to offer), and the receiver's parked
// in-neighbors (a download port at the receiver just freed). A node
// parked for lack of interested neighbors needs no other wake-up:
// neighbors' needs only shrink, so its answer can change only when it
// gains a block itself — and then it is the receiver. Under a fault
// plan, the delivery may instead be sampled as lost or corrupt: the
// ports are restored, no block lands, and the same wake-ups apply.
func (e *engine) finishTransfer(ev *event) error {
	st := e.st
	delete(st.inFlight[ev.to], int32(ev.block))
	e.uploading[ev.from] = false
	e.curUpload[ev.from] = nil

	if e.adv != nil {
		// The sender's strategy rules first: a block that stalled or
		// failed verification was never delivered, so the fault layer
		// has nothing left to drop.
		if fate := e.adv.DeliveryFate(ev.from); fate != adversary.Deliver {
			corrupt := fate == adversary.Garbage
			if corrupt {
				e.res.AdvCorrupt++
			} else {
				e.res.AdvStalled++
			}
			if st.honest[ev.to] {
				e.res.HonestWasted++
			}
			if e.cfg.RecordTrace {
				e.res.Trace = append(e.res.Trace, TransferRecord{
					Start: ev.start, End: ev.at,
					From: int32(ev.from), To: int32(ev.to), Block: int32(ev.block),
					Lost: true, Corrupt: corrupt, Adversary: true,
				})
			}
			if e.advAware != nil {
				e.advAware.OnAdversaryDrop(ev.from, ev.to, ev.block, corrupt, st)
			}
			if err := e.tryStartUpload(ev.from); err != nil {
				return err
			}
			// The receiver's port freed and the block is no longer in
			// flight: parked in-neighbors may now retry it.
			return e.wakeInNeighbors(ev.to)
		}
	}

	if e.cfg.Fault != nil && e.cfg.Fault.Lossy() {
		lost, corrupt := e.cfg.Fault.Drop()
		if lost || corrupt {
			if corrupt {
				e.res.Corrupt++
			} else {
				e.res.Lost++
			}
			if e.cfg.RecordTrace {
				e.res.Trace = append(e.res.Trace, TransferRecord{
					Start: ev.start, End: ev.at,
					From: int32(ev.from), To: int32(ev.to), Block: int32(ev.block),
					Lost: true, Corrupt: corrupt,
				})
			}
			if e.faultAware != nil {
				e.faultAware.OnLoss(ev.from, ev.to, ev.block, corrupt, st)
			}
			if err := e.tryStartUpload(ev.from); err != nil {
				return err
			}
			// The receiver's port freed and the block is no longer in
			// flight: parked in-neighbors may now retry it.
			return e.wakeInNeighbors(ev.to)
		}
	}

	if st.have[ev.to].Add(ev.block) {
		e.res.Transfers++
		if e.adv != nil && st.honest[ev.to] {
			e.res.HonestUseful++
		}
		if ev.to != 0 && st.have[ev.to].Full() {
			st.complete++
			e.res.ClientCompletion[ev.to] = st.now
			if st.honest != nil && st.honest[ev.to] {
				st.completeHonest++
			}
			if e.adv != nil {
				e.adv.NoteComplete(ev.to)
			}
		}
		if e.oa != nil && ev.to != 0 {
			e.noteOpenDelivery(ev.to)
		}
	}
	if e.cfg.RecordTrace {
		e.res.Trace = append(e.res.Trace, TransferRecord{
			Start: ev.start, End: ev.at,
			From: int32(ev.from), To: int32(ev.to), Block: int32(ev.block),
		})
	}
	e.proto.OnDeliver(ev.from, ev.to, ev.block, st)

	if err := e.tryStartUpload(ev.from); err != nil {
		return err
	}
	if err := e.tryStartUpload(ev.to); err != nil {
		return err
	}
	return e.wakeInNeighbors(ev.to)
}
