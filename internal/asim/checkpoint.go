package asim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
)

// CheckpointableProtocol is implemented by protocols whose internal
// state (RNG streams, rarity tables, quarantine tables) can be
// persisted and restored. The engine refuses to checkpoint a run whose
// protocol does not implement it.
type CheckpointableProtocol interface {
	Protocol
	// SnapshotState appends the protocol's full mutable state to enc.
	SnapshotState(enc *checkpoint.Encoder) error
	// RestoreState overwrites the protocol's state from dec, given the
	// already-restored simulation state (protocols may rebuild derived
	// caches from it). It is called exactly once, before the first
	// resumed event.
	RestoreState(dec *checkpoint.Decoder, s *State) error
}

// Section names of an asynchronous-engine snapshot.
const (
	asecMeta      = "asim/meta"
	asecState     = "asim/state"
	asecResult    = "asim/result"
	asecEngine    = "asim/engine"
	asecFault     = "asim/fault"
	asecAdversary = "asim/adversary"
	asecArrival   = "asim/arrival"
	asecProtocol  = "asim/protocol"
)

// snapshot captures the engine's full state between two handled events.
// The pending queue is encoded in canonical (at, seq) order — heap
// layout must not leak into the bytes — and cancelled events are
// omitted: their references were already torn down, so a resumed run
// simply never sees them.
func (e *engine) snapshot() (*checkpoint.Snapshot, error) {
	cp, ok := e.proto.(CheckpointableProtocol)
	if !ok {
		return nil, fmt.Errorf("asim: protocol %T does not support checkpointing", e.proto)
	}
	snap := &checkpoint.Snapshot{}
	c := e.cfg

	me := checkpoint.NewEncoder(64 + 16*c.Nodes)
	me.Int(c.Nodes)
	me.Int(c.Blocks)
	me.F64s(c.UploadRate)
	me.F64s(c.DownloadRate)
	me.Int(c.DownloadPorts)
	me.F64(c.MaxTime)
	me.Bool(c.RecordTrace)
	me.Bool(c.Fault != nil)
	me.Bool(e.adv != nil)
	me.Bool(e.oa != nil)
	snap.Add(asecMeta, me.Bytes())

	st := e.st
	se := checkpoint.NewEncoder(64 + c.Nodes*(c.Blocks/8+16))
	se.F64(st.now)
	se.Int(st.complete)
	for _, h := range st.have {
		se.Uint64s(h.Words())
	}
	se.Bool(st.alive != nil)
	if st.alive != nil {
		se.Bools(st.alive)
		se.Int(st.aliveClients)
		se.Int(st.pendingRejoin)
	}
	se.Bool(st.honest != nil)
	if st.honest != nil {
		se.Int(st.completeHonest)
		se.Int(st.aliveHonest)
		se.Int(st.pendingRejoinHonest)
	}
	snap.Add(asecState, se.Bytes())

	res := e.res
	re := checkpoint.NewEncoder(256 + 32*len(res.Trace))
	re.F64s(res.ClientCompletion)
	re.Int(res.Transfers)
	re.Int(res.Lost)
	re.Int(res.Corrupt)
	re.Int(len(res.FaultLog))
	for _, ev := range res.FaultLog {
		encodeFaultEvent(re, ev)
	}
	re.Int(res.AdvStalled)
	re.Int(res.AdvCorrupt)
	re.Int(res.HonestUseful)
	re.Int(res.HonestWasted)
	if c.RecordTrace {
		re.Int(len(res.Trace))
		for _, tr := range res.Trace {
			re.F64(tr.Start)
			re.F64(tr.End)
			re.U32(uint32(tr.From))
			re.U32(uint32(tr.To))
			re.U32(uint32(tr.Block))
			re.Bool(tr.Lost)
			re.Bool(tr.Corrupt)
			re.Bool(tr.Adversary)
		}
	}
	snap.Add(asecResult, re.Bytes())

	pend := make([]*event, 0, len(e.queue))
	for _, ev := range e.queue {
		if !ev.cancelled {
			pend = append(pend, ev)
		}
	}
	sort.Slice(pend, func(i, j int) bool {
		if pend[i].at != pend[j].at {
			return pend[i].at < pend[j].at
		}
		return pend[i].seq < pend[j].seq
	})
	ee := checkpoint.NewEncoder(64 + 40*len(pend))
	ee.Int(e.seq)
	ee.Int(e.handled)
	ee.Bools(e.parked)
	ee.Int(len(pend))
	for _, ev := range pend {
		ee.F64(ev.at)
		ee.Int(ev.seq)
		ee.U8(uint8(ev.kind))
		switch ev.kind {
		case evComplete:
			ee.U32(uint32(ev.from))
			ee.U32(uint32(ev.to))
			ee.U32(uint32(ev.block))
			ee.F64(ev.start)
		case evTimer:
			ee.Int(ev.timer)
		case evCrash, evArrive:
			// The event time says it all; cross-checked against the
			// restored fault/arrival plan position on resume.
		case evRejoin, evAdvWake, evDepart:
			ee.U32(uint32(ev.node))
		}
	}
	snap.Add(asecEngine, ee.Bytes())

	if c.Fault != nil {
		fe := checkpoint.NewEncoder(128)
		c.Fault.Snapshot(fe)
		snap.Add(asecFault, fe.Bytes())
	}
	if e.adv != nil {
		ae := checkpoint.NewEncoder(64 + 16*c.Nodes)
		e.adv.Snapshot(ae)
		snap.Add(asecAdversary, ae.Bytes())
	}
	if e.oa != nil {
		oe := checkpoint.NewEncoder(256 + 16*c.Nodes)
		e.oa.snapshot(oe)
		snap.Add(asecArrival, oe.Bytes())
	}

	pe := checkpoint.NewEncoder(1024)
	if err := cp.SnapshotState(pe); err != nil {
		return nil, fmt.Errorf("asim: protocol snapshot: %w", err)
	}
	snap.Add(asecProtocol, pe.Bytes())
	return snap, nil
}

// restore overwrites a freshly constructed engine (newEngine output,
// nothing kicked) with the snapshot's state. The derived structures the
// snapshot omits — inFlight maps, upload ports, advWakePending — are
// rebuilt from the decoded event queue, and every rebuilt invariant is
// cross-checked so a corrupted snapshot is rejected rather than resumed
// into a diverging run.
func (e *engine) restore(snap *checkpoint.Snapshot) error {
	cp, ok := e.proto.(CheckpointableProtocol)
	if !ok {
		return fmt.Errorf("asim: protocol %T does not support checkpointing", e.proto)
	}
	c := e.cfg

	mp, err := snap.Section(asecMeta)
	if err != nil {
		return err
	}
	md := checkpoint.NewDecoder(mp)
	nodes, blocks := md.Int(), md.Int()
	upRate := md.F64s()
	downRate := md.F64s()
	ports := md.Int()
	maxTime := md.F64()
	recTrace, hasFault, hasAdv := md.Bool(), md.Bool(), md.Bool()
	hasOpen := md.Bool()
	if err := md.Finish(); err != nil {
		return err
	}
	if nodes != c.Nodes || blocks != c.Blocks || ports != c.DownloadPorts ||
		maxTime != c.MaxTime || recTrace != c.RecordTrace ||
		hasFault != (c.Fault != nil) || hasAdv != (e.adv != nil) ||
		hasOpen != (e.oa != nil) ||
		!equalF64s(upRate, c.UploadRate) || !equalF64s(downRate, c.DownloadRate) {
		return fmt.Errorf("asim: snapshot taken under a different config (snapshot n=%d k=%d ports=%d maxTime=%v trace=%v fault=%v adv=%v open=%v)",
			nodes, blocks, ports, maxTime, recTrace, hasFault, hasAdv, hasOpen)
	}

	sp, err := snap.Section(asecState)
	if err != nil {
		return err
	}
	sd := checkpoint.NewDecoder(sp)
	st := e.st
	now := sd.F64()
	complete := sd.Int()
	if sd.Err() == nil && (math.IsNaN(now) || math.IsInf(now, 0) || now < 0 ||
		complete < 0 || complete > c.Nodes-1) {
		return checkpoint.Corruptf("asim: time %v / complete %d out of range", now, complete)
	}
	for v := range st.have {
		words := sd.Uint64s()
		if err := sd.Err(); err != nil {
			return err
		}
		if err := st.have[v].SetWords(words); err != nil {
			return checkpoint.Corruptf("asim: node %d blocks: %v", v, err)
		}
	}
	if !st.have[0].Full() {
		return checkpoint.Corruptf("asim: server no longer holds the full file")
	}
	if sd.Bool() != (st.alive != nil) {
		if sd.Err() == nil {
			return checkpoint.Corruptf("asim: fault-state presence mismatch")
		}
	}
	if st.alive != nil {
		alive := sd.Bools()
		aliveClients := sd.Int()
		pendingRejoin := sd.Int()
		if err := sd.Err(); err != nil {
			return err
		}
		if len(alive) != c.Nodes || !alive[0] {
			return checkpoint.Corruptf("asim: invalid alive mask")
		}
		n := 0
		for _, a := range alive[1:] {
			if a {
				n++
			}
		}
		if aliveClients != n || pendingRejoin < 0 || pendingRejoin > c.Nodes-1 {
			return checkpoint.Corruptf("asim: alive/rejoin counters inconsistent with mask")
		}
		copy(st.alive, alive)
		st.rebuildPresent()
		st.aliveClients = aliveClients
		st.pendingRejoin = pendingRejoin
	}
	if sd.Bool() != (st.honest != nil) {
		if sd.Err() == nil {
			return checkpoint.Corruptf("asim: adversary-state presence mismatch")
		}
	}
	if st.honest != nil {
		st.completeHonest = sd.Int()
		st.aliveHonest = sd.Int()
		st.pendingRejoinHonest = sd.Int()
	}
	if err := sd.Finish(); err != nil {
		return err
	}
	st.now = now
	st.complete = complete
	if err := e.checkProgressCounters(); err != nil {
		return err
	}

	rp, err := snap.Section(asecResult)
	if err != nil {
		return err
	}
	rd := checkpoint.NewDecoder(rp)
	res := e.res
	cc := rd.F64s()
	transfers := rd.Int()
	lost := rd.Int()
	corrupt := rd.Int()
	nEvents := rd.Int()
	if err := rd.Err(); err != nil {
		return err
	}
	if len(cc) != c.Nodes {
		return checkpoint.Corruptf("asim: completion slice sized %d for %d nodes", len(cc), c.Nodes)
	}
	for v, t := range cc {
		if math.IsNaN(t) || t < 0 || t > now {
			return checkpoint.Corruptf("asim: node %d completion time %v out of range", v, t)
		}
	}
	if transfers < 0 || lost < 0 || corrupt < 0 || nEvents < 0 || nEvents > rd.Remaining() {
		return checkpoint.Corruptf("asim: negative result counters")
	}
	copy(res.ClientCompletion, cc)
	res.Transfers, res.Lost, res.Corrupt = transfers, lost, corrupt
	res.FaultLog = nil
	prevT := 0.0
	for i := 0; i < nEvents; i++ {
		ev, err := decodeFaultEvent(rd, st.n)
		if err != nil {
			return err
		}
		if ev.Time < prevT || ev.Time > now {
			return checkpoint.Corruptf("asim: fault log entry %d out of order", i)
		}
		prevT = ev.Time
		res.FaultLog = append(res.FaultLog, ev)
	}
	res.AdvStalled = rd.Int()
	res.AdvCorrupt = rd.Int()
	res.HonestUseful = rd.Int()
	res.HonestWasted = rd.Int()
	if rd.Err() == nil && (res.AdvStalled < 0 || res.AdvCorrupt < 0 ||
		res.HonestUseful < 0 || res.HonestWasted < 0) {
		return checkpoint.Corruptf("asim: negative adversary counters")
	}
	if c.RecordTrace {
		nTrace := rd.Int()
		if err := rd.Err(); err != nil {
			return err
		}
		if nTrace < 0 || nTrace > rd.Remaining() {
			return checkpoint.Corruptf("asim: trace length %d invalid", nTrace)
		}
		res.Trace = res.Trace[:0]
		prevEnd := 0.0
		for i := 0; i < nTrace; i++ {
			var tr TransferRecord
			tr.Start, tr.End = rd.F64(), rd.F64()
			tr.From, tr.To, tr.Block = int32(rd.U32()), int32(rd.U32()), int32(rd.U32())
			tr.Lost, tr.Corrupt, tr.Adversary = rd.Bool(), rd.Bool(), rd.Bool()
			if err := rd.Err(); err != nil {
				return err
			}
			if tr.From < 0 || int(tr.From) >= st.n || tr.To < 0 || int(tr.To) >= st.n ||
				tr.From == tr.To || tr.Block < 0 || int(tr.Block) >= st.k {
				return checkpoint.Corruptf("asim: trace record %d out of range", i)
			}
			if math.IsNaN(tr.Start) || tr.Start < 0 || tr.End < tr.Start ||
				tr.End > now || tr.End < prevEnd {
				return checkpoint.Corruptf("asim: trace record %d has invalid times", i)
			}
			if (tr.Corrupt || tr.Adversary) && !tr.Lost {
				return checkpoint.Corruptf("asim: trace record %d corrupt/adversary but not lost", i)
			}
			prevEnd = tr.End
			res.Trace = append(res.Trace, tr)
		}
	}
	if err := rd.Finish(); err != nil {
		return err
	}

	if c.Fault != nil {
		fp, err := snap.Section(asecFault)
		if err != nil {
			return err
		}
		fd := checkpoint.NewDecoder(fp)
		if err := c.Fault.RestoreState(fd); err != nil {
			return err
		}
		if err := fd.Finish(); err != nil {
			return err
		}
	}
	if e.adv != nil {
		ap, err := snap.Section(asecAdversary)
		if err != nil {
			return err
		}
		ad := checkpoint.NewDecoder(ap)
		if err := e.adv.RestoreState(ad); err != nil {
			return err
		}
		if err := ad.Finish(); err != nil {
			return err
		}
	}

	if e.oa != nil {
		op, err := snap.Section(asecArrival)
		if err != nil {
			return err
		}
		od := checkpoint.NewDecoder(op)
		if err := e.oa.restore(od, st); err != nil {
			return err
		}
		if err := od.Finish(); err != nil {
			return err
		}
	}

	if err := e.restoreQueue(snap); err != nil {
		return err
	}

	pp, err := snap.Section(asecProtocol)
	if err != nil {
		return err
	}
	pd := checkpoint.NewDecoder(pp)
	if err := cp.RestoreState(pd, st); err != nil {
		return fmt.Errorf("asim: protocol restore: %w", err)
	}
	return pd.Finish()
}

// restoreQueue decodes the pending events and rebuilds every structure
// derived from them: inFlight maps, upload ports, curUpload references,
// and advWakePending flags. It must run after the state and plan
// sections are restored — event validation reads both.
func (e *engine) restoreQueue(snap *checkpoint.Snapshot) error {
	c, st := e.cfg, e.st
	ep, err := snap.Section(asecEngine)
	if err != nil {
		return err
	}
	ed := checkpoint.NewDecoder(ep)
	seq := ed.Int()
	handled := ed.Int()
	parked := ed.Bools()
	nPend := ed.Int()
	if err := ed.Err(); err != nil {
		return err
	}
	if seq < 0 || handled < 0 || len(parked) != c.Nodes {
		return checkpoint.Corruptf("asim: engine counters/park mask invalid")
	}
	if nPend < 0 || nPend > ed.Remaining() {
		return checkpoint.Corruptf("asim: pending event count %d invalid", nPend)
	}

	// Drop whatever newEngine scheduled (initial timers, first crash):
	// the snapshot's queue replaces it wholesale.
	e.queue = e.queue[:0]
	nTimers := len(e.proto.Wakeups())
	timerSeen := make([]bool, nTimers)
	rejoinSeen := make([]bool, c.Nodes)
	rejoins, rejoinsHonest := 0, 0
	crashSeen := false
	crashAt := 0.0
	arriveSeen := false
	arriveAt := 0.0
	departSeen := make([]bool, c.Nodes)
	departs := 0
	prevAt, prevSeq := math.Inf(-1), 0
	for i := 0; i < nPend; i++ {
		at := ed.F64()
		sq := ed.Int()
		kind := eventKind(ed.U8())
		if err := ed.Err(); err != nil {
			return err
		}
		if math.IsNaN(at) || math.IsInf(at, 0) || at < st.now {
			return checkpoint.Corruptf("asim: event %d at t=%v predates t=%v", i, at, st.now)
		}
		if sq < 1 || sq > seq {
			return checkpoint.Corruptf("asim: event %d seq %d outside [1, %d]", i, sq, seq)
		}
		if at < prevAt || (at == prevAt && sq <= prevSeq) {
			return checkpoint.Corruptf("asim: event %d not in canonical order", i)
		}
		prevAt, prevSeq = at, sq
		ev := e.newEvent()
		ev.at, ev.seq, ev.kind = at, sq, kind
		switch kind {
		case evComplete:
			from, to, block := int(ed.U32()), int(ed.U32()), int(ed.U32())
			start := ed.F64()
			if err := ed.Err(); err != nil {
				return err
			}
			if from < 0 || from >= st.n || to < 0 || to >= st.n || from == to ||
				block < 0 || block >= st.k {
				return checkpoint.Corruptf("asim: transfer event %d out of range", i)
			}
			if !st.Alive(from) || !st.Alive(to) {
				return checkpoint.Corruptf("asim: transfer event %d touches a dead node", i)
			}
			if !st.have[from].Has(block) || st.have[to].Has(block) {
				return checkpoint.Corruptf("asim: transfer event %d inconsistent with ownership", i)
			}
			if e.curUpload[from] != nil {
				return checkpoint.Corruptf("asim: node %d has two uploads in flight", from)
			}
			if _, dup := st.inFlight[to][int32(block)]; dup {
				return checkpoint.Corruptf("asim: block %d twice in flight to node %d", block, to)
			}
			if c.DownloadPorts != Unlimited && len(st.inFlight[to]) >= c.DownloadPorts {
				return checkpoint.Corruptf("asim: node %d exceeds its download ports", to)
			}
			rate := c.UploadRate[from]
			if down := c.DownloadRate[to] / math.Max(1, float64(c.DownloadPorts)); down < rate {
				rate = down
			}
			if math.IsNaN(start) || start < 0 || start > st.now || at != start+1/rate {
				return checkpoint.Corruptf("asim: transfer event %d duration inconsistent with rates", i)
			}
			ev.from, ev.to, ev.block, ev.start = from, to, block, start
			st.inFlight[to][int32(block)] = ev
			e.curUpload[from] = ev
			e.uploading[from] = true
		case evTimer:
			tm := ed.Int()
			if err := ed.Err(); err != nil {
				return err
			}
			if tm < 0 || tm >= nTimers || timerSeen[tm] {
				return checkpoint.Corruptf("asim: timer event %d invalid or duplicated", tm)
			}
			timerSeen[tm] = true
			ev.timer = tm
		case evCrash:
			if c.Fault == nil || crashSeen {
				return checkpoint.Corruptf("asim: unexpected crash event")
			}
			crashSeen, crashAt = true, at
		case evRejoin:
			node := int(ed.U32())
			if err := ed.Err(); err != nil {
				return err
			}
			if c.Fault == nil || node < 1 || node >= st.n || st.alive[node] || rejoinSeen[node] {
				return checkpoint.Corruptf("asim: rejoin event for node %d invalid", node)
			}
			rejoinSeen[node] = true
			rejoins++
			if st.honest != nil && st.honest[node] {
				rejoinsHonest++
			}
			ev.node = node
		case evAdvWake:
			node := int(ed.U32())
			if err := ed.Err(); err != nil {
				return err
			}
			if e.adv == nil || node < 0 || node >= st.n || e.advWakePending[node] {
				return checkpoint.Corruptf("asim: throttle wake for node %d invalid", node)
			}
			e.advWakePending[node] = true
			ev.node = node
		case evArrive:
			if e.oa == nil || arriveSeen {
				return checkpoint.Corruptf("asim: unexpected arrival event")
			}
			arriveSeen, arriveAt = true, at
		case evDepart:
			node := int(ed.U32())
			if err := ed.Err(); err != nil {
				return err
			}
			if e.oa == nil || node < 1 || node >= st.n || !st.alive[node] ||
				!e.oa.departScheduled[node] || departSeen[node] {
				return checkpoint.Corruptf("asim: departure event for node %d invalid", node)
			}
			departSeen[node] = true
			departs++
			ev.node = node
		default:
			return checkpoint.Corruptf("asim: unknown event kind %d", kind)
		}
		e.queue = append(e.queue, ev)
	}
	if err := ed.Finish(); err != nil {
		return err
	}
	heap.Init(&e.queue)

	for _, tm := range timerSeen {
		if !tm {
			return checkpoint.Corruptf("asim: a protocol timer has no pending event")
		}
	}
	if c.Fault != nil {
		if st.pendingRejoin != rejoins || st.pendingRejoinHonest != rejoinsHonest {
			return checkpoint.Corruptf("asim: %d queued rejoins for %d pending", rejoins, st.pendingRejoin)
		}
		at, ok := c.Fault.NextCrash()
		expect := ok && at <= c.MaxTime
		if expect != crashSeen || (expect && crashAt != at) {
			return checkpoint.Corruptf("asim: crash event inconsistent with fault plan position")
		}
	}
	if e.oa != nil {
		// Exactly one arrival event is pending unless the pool is
		// exhausted or the stream was cut by MaxTime, and its time is
		// the restored plan's next draw.
		expect := int(e.oa.nextID) < c.Nodes && !e.oa.truncated
		if expect != arriveSeen || (expect && arriveAt != c.Arrivals.NextArrival()) {
			return checkpoint.Corruptf("asim: arrival event inconsistent with arrival plan position")
		}
		// Every scheduled-but-alive departure has exactly one event.
		want := 0
		for v := 1; v < st.n; v++ {
			if e.oa.departScheduled[v] && st.alive[v] {
				want++
			}
		}
		if departs != want {
			return checkpoint.Corruptf("asim: %d queued departures for %d scheduled", departs, want)
		}
	}
	for v, p := range parked {
		if p && (e.uploading[v] || !st.Alive(v)) {
			return checkpoint.Corruptf("asim: node %d parked while uploading or dead", v)
		}
	}
	copy(e.parked, parked)
	e.seq = seq
	e.handled = handled
	return nil
}

// checkProgressCounters recounts completion from the restored ownership
// and liveness masks and rejects snapshots whose running counters
// disagree — the cheap end-to-end check that the sections belong
// together.
func (e *engine) checkProgressCounters() error {
	st := e.st
	complete, completeHonest, aliveHonest := 0, 0, 0
	for v := 1; v < st.n; v++ {
		if st.alive != nil && !st.alive[v] {
			continue
		}
		honest := st.honest == nil || st.honest[v]
		if honest {
			aliveHonest++
		}
		if st.have[v].Full() {
			complete++
			if honest {
				completeHonest++
			}
		}
	}
	if st.complete != complete {
		return checkpoint.Corruptf("asim: %d complete clients recorded, mask says %d", st.complete, complete)
	}
	if st.honest != nil {
		wantAlive := aliveHonest
		if st.alive == nil {
			wantAlive = st.honestClients
		}
		if st.completeHonest != completeHonest || st.aliveHonest != wantAlive {
			return checkpoint.Corruptf("asim: honest progress counters inconsistent with masks")
		}
	}
	return nil
}

func encodeFaultEvent(e *checkpoint.Encoder, ev fault.Event) {
	e.F64(ev.Time)
	e.U32(uint32(ev.Node))
	e.U8(uint8(ev.Kind))
	e.Bool(ev.Wiped)
}

func decodeFaultEvent(d *checkpoint.Decoder, n int) (fault.Event, error) {
	ev := fault.Event{
		Time: d.F64(),
		Node: int32(d.U32()),
		Kind: fault.Kind(d.U8()),
	}
	ev.Wiped = d.Bool()
	if err := d.Err(); err != nil {
		return fault.Event{}, err
	}
	if ev.Node < 1 || int(ev.Node) >= n {
		return fault.Event{}, checkpoint.Corruptf("asim: fault event node %d out of range", ev.Node)
	}
	switch ev.Kind {
	case fault.Crash, fault.Rejoin, fault.Arrive, fault.Depart:
	default:
		return fault.Event{}, checkpoint.Corruptf("asim: fault event kind %d invalid", ev.Kind)
	}
	return ev, nil
}

// snapshot appends the open-system bookkeeping: the arrival plan and
// watchdog positions plus every per-peer array the verdict and sojourn
// statistics are computed from.
func (oa *asimArrivals) snapshot(e *checkpoint.Encoder) {
	oa.plan.Snapshot(e)
	oa.wd.Snapshot(e)
	e.U32(uint32(oa.nextID))
	e.F64s(oa.arrivedAt)
	e.Int32s(oa.exitAfter)
	e.Bools(oa.departScheduled)
	e.Int(oa.departed)
	e.Int(oa.earlyExits)
	e.Int(oa.peak)
	e.U32(uint32(oa.oldest))
	e.Bool(oa.truncated)
}

// restore rewinds the open-system bookkeeping. Must run before
// restoreQueue: the queued arrival and departure events are validated
// against the restored plan position and departScheduled mask.
func (oa *asimArrivals) restore(d *checkpoint.Decoder, st *State) error {
	if err := oa.plan.RestoreState(d); err != nil {
		return err
	}
	if err := oa.wd.RestoreState(d); err != nil {
		return err
	}
	nextID := int32(d.U32())
	arrivedAt := d.F64s()
	exitAfter := d.Int32s()
	departScheduled := d.Bools()
	departed, earlyExits, peak := d.Int(), d.Int(), d.Int()
	oldest := int32(d.U32())
	truncated := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if nextID < 1 || nextID > int32(st.n) {
		return checkpoint.Corruptf("asim: arrival nextID %d out of range", nextID)
	}
	if len(arrivedAt) != st.n || len(exitAfter) != st.n || len(departScheduled) != st.n {
		return checkpoint.Corruptf("asim: arrival arrays sized %d/%d/%d for %d nodes",
			len(arrivedAt), len(exitAfter), len(departScheduled), st.n)
	}
	for v := 1; v < int(nextID); v++ {
		if math.IsNaN(arrivedAt[v]) || arrivedAt[v] < 0 || arrivedAt[v] > st.now {
			return checkpoint.Corruptf("asim: node %d arrival time %v out of range", v, arrivedAt[v])
		}
		if exitAfter[v] < 0 || int(exitAfter[v]) >= st.k {
			return checkpoint.Corruptf("asim: node %d exit threshold %d out of range", v, exitAfter[v])
		}
	}
	if departed < 0 || earlyExits < 0 || earlyExits > departed || peak < 0 {
		return checkpoint.Corruptf("asim: arrival counters %d/%d/%d invalid", departed, earlyExits, peak)
	}
	if oldest < 1 || oldest > nextID {
		return checkpoint.Corruptf("asim: oldest pointer %d outside [1, %d]", oldest, nextID)
	}
	oa.nextID = nextID
	copy(oa.arrivedAt, arrivedAt)
	copy(oa.exitAfter, exitAfter)
	copy(oa.departScheduled, departScheduled)
	oa.departed, oa.earlyExits, oa.peak = departed, earlyExits, peak
	oa.oldest = oldest
	oa.truncated = truncated
	return nil
}

func equalF64s(a, b []float64) bool {
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

// maybeCheckpoint writes a snapshot if the policy asks for one at the
// current handled-event boundary. A write failure aborts the run: the
// user asked for durability, so failing to provide it must not pass
// silently.
func (e *engine) maybeCheckpoint() error {
	ck := e.cfg.Checkpoint
	if !ck.Enabled() || e.handled%ck.Every != 0 {
		return nil
	}
	snap, err := e.snapshot()
	if err != nil {
		return err
	}
	return snap.WriteFile(ck.Path)
}

// Resume reconstructs a run from a snapshot and continues it to
// completion. cfg and p must be built exactly as for the original Run
// call (fresh single-use fault/adversary plans with the same options,
// same protocol construction); the snapshot then rewinds all mutable
// state to the captured event boundary. By the determinism contract the
// resumed run's result — including the full trace — is byte-identical
// to the uninterrupted run's.
func Resume(cfg Config, p Protocol, snap *checkpoint.Snapshot) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes == 1 {
		return nil, fmt.Errorf("asim: nothing to resume for a single-node run")
	}
	c := cfg.withDefaults()
	eng, err := newEngine(c, p)
	if err != nil {
		return nil, err
	}
	if err := eng.restore(snap); err != nil {
		return nil, err
	}
	return eng.loop()
}
