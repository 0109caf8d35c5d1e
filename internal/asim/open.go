package asim

import (
	"barterdist/internal/arrival"
	"barterdist/internal/fault"
)

// asimArrivals carries the event engine's open-system bookkeeping: the
// next unassigned node id, per-peer arrival times and selfish exit
// thresholds, the stability watchdog, and the aggregates that become
// Result.Open.
//
// The open-system model matches the synchronous engine's (see
// simulate/open.go): Config.Nodes is the capacity, node 0 the
// persistent server, and clients enter with fresh ids in arrival
// order. Arrivals and departures ride the engine's existing event
// machinery — an arrival is delivered to FaultAware protocols as a
// wiped rejoin of a never-before-seen node, a departure as a permanent
// crash — so churn-aware protocols work unmodified.
type asimArrivals struct {
	plan *arrival.Plan
	wd   *arrival.Watchdog

	nextID          int32
	arrivedAt       []float64
	exitAfter       []int32
	departScheduled []bool

	departed   int
	earlyExits int
	peak       int
	oldest     int32 // smallest present incomplete id; advances monotonically
	// truncated records that the arrival stream was cut by MaxTime (an
	// arrival would have landed past the budget): the pool can then
	// never exhaust, so a quiet queue is a budget truncation, not a
	// drain.
	truncated bool
}

func newAsimArrivals(plan *arrival.Plan, c Config) *asimArrivals {
	opts := plan.Options().WithWatchdogDefaults(c.Blocks)
	return &asimArrivals{
		plan:            plan,
		wd:              arrival.NewWatchdog(opts),
		nextID:          1,
		oldest:          1,
		arrivedAt:       make([]float64, c.Nodes),
		exitAfter:       make([]int32, c.Nodes),
		departScheduled: make([]bool, c.Nodes),
	}
}

// scheduleNextArrival turns the plan's pending arrival into an engine
// event, mirroring scheduleNextCrash. The plan's position is consumed
// when the event is handled, so a checkpoint can cross-check the
// queued event against the plan. Arrivals beyond MaxTime mark the run
// as budget-truncated instead of being scheduled.
func (e *engine) scheduleNextArrival() {
	if int(e.oa.nextID) >= e.cfg.Nodes {
		return
	}
	at := e.cfg.Arrivals.NextArrival()
	if at > e.cfg.MaxTime {
		e.oa.truncated = true
		return
	}
	ev := e.newEvent()
	ev.at, ev.kind = at, evArrive
	e.schedule(ev)
}

// applyArrive admits the next peer: fresh id, empty cache, exit
// behavior drawn from the plan. FaultAware protocols see it as a wiped
// rejoin (an empty cache appearing in the swarm — exactly what their
// rarity accounting must absorb).
func (e *engine) applyArrive() error {
	st, oa := e.st, e.oa
	v := int(oa.nextID)
	oa.nextID++
	st.setAlive(v, true)
	st.aliveClients++
	oa.arrivedAt[v] = st.now
	oa.exitAfter[v] = int32(oa.plan.ExitThreshold(st.k))
	e.res.FaultLog = append(e.res.FaultLog, fault.Event{
		Time: st.now, Node: int32(v), Kind: fault.Arrive,
	})
	if e.faultAware != nil {
		e.faultAware.OnRejoin(v, true, st)
	}
	if err := e.tryStartUpload(v); err != nil {
		return err
	}
	// Peers parked for lack of targets may now serve the newcomer.
	return e.wakeInNeighbors(v)
}

// applyDepart removes peer v for good, reusing the crash teardown
// (aborted transfers, restored ports, re-woken peers). FaultAware
// protocols see it as a crash that never rejoins.
func (e *engine) applyDepart(v int) error {
	st, oa := e.st, e.oa
	if !st.have[v].Full() {
		oa.earlyExits++
	}
	oa.departed++
	wakeSenders, freedReceiver := e.teardown(v)
	e.res.FaultLog = append(e.res.FaultLog, fault.Event{
		Time: st.now, Node: int32(v), Kind: fault.Depart,
	})
	if e.faultAware != nil {
		e.faultAware.OnCrash(v, st)
	}
	for _, u := range wakeSenders {
		if err := e.tryStartUpload(u); err != nil {
			return err
		}
	}
	if freedReceiver >= 0 && st.alive[freedReceiver] {
		return e.wakeInNeighbors(freedReceiver)
	}
	return nil
}

// scheduleDepart queues peer v's permanent departure at time at
// (idempotent — a selfish peer that also completes departs once).
func (e *engine) scheduleDepart(v int, at float64) {
	if e.oa.departScheduled[v] {
		return
	}
	e.oa.departScheduled[v] = true
	ev := e.newEvent()
	ev.at, ev.kind, ev.node = at, evDepart, v
	e.schedule(ev)
}

// noteOpenDelivery applies the departure policies after a useful
// delivery to v: completion triggers the seed policy, and a selfish
// peer that reached its exit threshold leaves immediately.
func (e *engine) noteOpenDelivery(v int) {
	st, oa := e.st, e.oa
	if st.have[v].Full() {
		opts := oa.plan.Options()
		if opts.SeedPolicy == arrival.SeedDepart {
			e.scheduleDepart(v, st.now+opts.Linger)
		}
		return
	}
	if oa.exitAfter[v] > 0 && int32(st.have[v].Count()) >= oa.exitAfter[v] {
		e.scheduleDepart(v, st.now)
	}
}

// observe samples the watchdog after a handled event.
func (oa *asimArrivals) observe(st *State) arrival.Reason {
	occ := st.aliveClients - st.complete
	if occ > oa.peak {
		oa.peak = occ
	}
	// Ids are assigned in arrival order and open-mode block sets never
	// shrink, so the oldest present incomplete peer has the smallest id
	// and the pointer only advances.
	for oa.oldest < oa.nextID && (!st.alive[oa.oldest] || st.have[oa.oldest].Full()) {
		oa.oldest++
	}
	age := 0.0
	if oa.oldest < oa.nextID {
		age = st.now - oa.arrivedAt[oa.oldest]
	}
	return oa.wd.Observe(st.now, occ, age)
}

// drained reports the ergodic end state: pool exhausted, stream not
// truncated, and nobody present still downloading.
func (oa *asimArrivals) drained(st *State) bool {
	return int(oa.nextID) == st.n && !oa.truncated && st.complete == st.aliveClients
}

// finishOpen stamps the verdict and the open-run instrumentation.
func (e *engine) finishOpen(v arrival.Verdict, reason arrival.Reason) *Result {
	res := e.finish()
	st, oa := e.st, e.oa
	o := &arrival.OpenResult{
		Verdict:        v,
		Reason:         reason,
		Arrived:        int(oa.nextID) - 1,
		Departed:       oa.departed,
		EarlyExits:     oa.earlyExits,
		PeakOccupancy:  oa.peak,
		FinalOccupancy: st.aliveClients - st.complete,
	}
	var sum float64
	for vv := 1; vv < int(oa.nextID); vv++ {
		ct := res.ClientCompletion[vv]
		if ct == 0 {
			continue
		}
		o.Completed++
		s := ct - oa.arrivedAt[vv]
		sum += s
		if s > o.SojournMax {
			o.SojournMax = s
		}
	}
	if o.Completed > 0 {
		o.SojournMean = sum / float64(o.Completed)
	}
	if e.cfg.RecordTrace {
		o.ArrivalTime = make([]float64, st.n)
		copy(o.ArrivalTime, oa.arrivedAt)
	}
	res.Open = o
	return res
}
