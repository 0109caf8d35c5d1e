package asim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/bitset"
	"barterdist/internal/fault"
	"barterdist/internal/parallel"
)

// ErrAudit wraps every RunAudit failure so callers can distinguish a
// broken recorded run from configuration errors.
var ErrAudit = errors.New("asim: audit failed")

func auditErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrAudit, fmt.Sprintf(format, args...))
}

// durEps is the relative tolerance for transfer-duration checks; the
// engine computes End = Start + 1/rate in floating point, so replayed
// durations can differ from 1/rate by rounding.
const durEps = 1e-9

// aRecTasks is the fixed partition width of the parallel audit: the
// trace is split into aRecTasks contiguous record chunks for the
// stateless per-record checks, and the port checks into aRecTasks node
// lanes. Fixed, so the partition — and therefore the verdict — is
// independent of the worker count.
const aRecTasks = 8

// aPoint is one audit finding, keyed for the deterministic merge:
// phase 0 = fault-log sanity, 1 = per-record checks (pos = record
// index, prio = the check's position in the sequential auditor's
// order), 2 = port checks (pos = stage*Nodes + node), 3 = aggregate
// checks. The lexicographically smallest point across all tasks is
// exactly the error the sequential auditor would have hit first.
type aPoint struct {
	phase uint8
	pos   int
	prio  int
	err   error
}

// aBetter returns the lexicographically smaller of two points (nil =
// no finding).
func aBetter(a, b *aPoint) *aPoint {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.phase != b.phase:
		if a.phase < b.phase {
			return a
		}
		return b
	case a.pos != b.pos:
		if a.pos < b.pos {
			return a
		}
		return b
	case a.prio <= b.prio:
		return a
	}
	return b
}

// eventIndex answers the auditor's two liveness queries — aliveAt and
// eventDuring — in O(log e) per call from per-node sorted event lists,
// replacing the sequential auditor's O(e) scan of the whole fault log
// per trace record. When the log is out of order or carries NaN times
// (only a doctored log can), the index falls back to the sequential
// auditor's exact global linear scan so the verdict stays identical.
type eventIndex struct {
	times  [][]float64 // per-node event times, log order
	up     [][]bool    // per-node resulting liveness after each event
	log    []fault.Event
	open   bool
	linear bool
}

func buildEventIndex(log []fault.Event, open bool, nodes int) *eventIndex {
	ix := &eventIndex{
		times: make([][]float64, nodes),
		up:    make([][]bool, nodes),
		log:   log,
		open:  open,
	}
	prev := math.Inf(-1)
	for _, ev := range log {
		if math.IsNaN(ev.Time) || ev.Time < prev {
			ix.linear = true
		}
		prev = ev.Time
		v := int(ev.Node)
		if v < 0 || v >= nodes {
			continue // sanity (phase 0) reports this; keep the index safe
		}
		ix.times[v] = append(ix.times[v], ev.Time)
		ix.up[v] = append(ix.up[v], ev.Kind == fault.Rejoin || ev.Kind == fault.Arrive)
	}
	return ix
}

// aliveAt reports node v's liveness at time t (events at exactly t
// included — crash arrivals are continuous, so exact collisions with
// transfer boundaries do not occur in engine-produced runs). In open
// mode clients are absent until their Arrive event.
func (ix *eventIndex) aliveAt(v int, t float64) bool {
	up := v == 0 || !ix.open
	if ix.linear {
		for _, ev := range ix.log {
			if ev.Time > t {
				break
			}
			if int(ev.Node) == v {
				up = ev.Kind == fault.Rejoin || ev.Kind == fault.Arrive
			}
		}
		return up
	}
	times := ix.times[v]
	i := sort.Search(len(times), func(i int) bool { return times[i] > t })
	if i == 0 {
		return up
	}
	return ix.up[v][i-1]
}

// eventDuring reports a fault event touching v strictly inside
// (start, end) — any such event must have aborted the transfer.
func (ix *eventIndex) eventDuring(v int, start, end float64) bool {
	if ix.linear {
		for _, ev := range ix.log {
			if ev.Time >= end {
				break
			}
			if ev.Time > start && int(ev.Node) == v {
				return true
			}
		}
		return false
	}
	times := ix.times[v]
	i := sort.Search(len(times), func(i int) bool { return times[i] > start })
	return i < len(times) && times[i] < end
}

// recordSkip reports whether a trace record is structurally invalid —
// the stateless chunk pass (auditRecords) reports it with a smaller key
// than anything downstream, so the stateful replay and the port lanes
// just skip it to stay panic-free; their state past that record can
// only feed points with larger keys, which the merge discards.
func recordSkip(c Config, tr TransferRecord, adversarial bool, honest []bool) bool {
	from, to, b := int(tr.From), int(tr.To), int(tr.Block)
	return from < 0 || from >= c.Nodes || to < 0 || to >= c.Nodes ||
		from == to || b < 0 || b >= c.Blocks || to == 0 ||
		tr.Start < 0 || tr.End <= tr.Start ||
		(tr.Corrupt && !tr.Lost) || (tr.Adversary && !tr.Lost) ||
		(tr.Adversary && !adversarial) || (tr.Adversary && honest[tr.From])
}

// auditRecords runs the stateless per-record checks (the sequential
// auditor's prios 0-13: end monotonicity, the structural switch, the
// bandwidth model, and the three liveness checks) over record chunk ci
// and returns the chunk's earliest finding. Records are scanned in
// order and prios ascend within a record, so the first hit is minimal.
func auditRecords(c Config, res *Result, ix *eventIndex, honest []bool, adversarial bool, ci int) *aPoint {
	lo := len(res.Trace) * ci / aRecTasks
	hi := len(res.Trace) * (ci + 1) / aRecTasks
	prevEnd := math.Inf(-1)
	if lo > 0 {
		prevEnd = res.Trace[lo-1].End
	}
	pt := func(i, prio int, err error) *aPoint {
		return &aPoint{phase: 1, pos: i, prio: prio, err: err}
	}
	for i := lo; i < hi; i++ {
		tr := res.Trace[i]
		if tr.End < prevEnd {
			return pt(i, 0, auditErr("trace record %d ends at %v, before its predecessor (%v)", i, tr.End, prevEnd))
		}
		prevEnd = tr.End
		from, to, b := int(tr.From), int(tr.To), int(tr.Block)
		switch {
		case from < 0 || from >= c.Nodes || to < 0 || to >= c.Nodes:
			return pt(i, 1, auditErr("trace record %d: nodes %d -> %d out of range", i, from, to))
		case from == to:
			return pt(i, 2, auditErr("trace record %d: node %d transfers to itself", i, from))
		case b < 0 || b >= c.Blocks:
			return pt(i, 3, auditErr("trace record %d: block %d out of range", i, b))
		case to == 0:
			return pt(i, 4, auditErr("trace record %d: upload to the server", i))
		case tr.Start < 0 || tr.End <= tr.Start:
			return pt(i, 5, auditErr("trace record %d: degenerate interval [%v, %v]", i, tr.Start, tr.End))
		case tr.Corrupt && !tr.Lost:
			return pt(i, 6, auditErr("trace record %d: corrupt but not marked lost", i))
		case tr.Adversary && !tr.Lost:
			return pt(i, 7, auditErr("trace record %d: adversary-faulted but not marked lost", i))
		case tr.Adversary && !adversarial:
			return pt(i, 8, auditErr("trace record %d: adversary-faulted transfer in a run without strategies", i))
		case tr.Adversary && honest[tr.From]:
			return pt(i, 9, auditErr("trace record %d: honest node %d recorded as misbehaving", i, tr.From))
		}
		// Bandwidth model: duration is exactly one block at the reserved
		// port rate.
		rate := c.UploadRate[from]
		down := c.DownloadRate[to]
		if c.DownloadPorts > 0 {
			down /= float64(c.DownloadPorts)
		}
		if down < rate {
			rate = down
		}
		want := 1 / rate
		if d := tr.End - tr.Start; math.Abs(d-want) > durEps*math.Max(1, want) {
			return pt(i, 10, auditErr("trace record %d: %d->%d duration %v, bandwidth model requires %v",
				i, from, to, d, want))
		}
		// Liveness across the whole flight.
		if !ix.aliveAt(from, tr.Start) {
			return pt(i, 11, auditErr("t=%v: dead node %d starts an upload", tr.Start, from))
		}
		if !ix.aliveAt(to, tr.Start) {
			return pt(i, 12, auditErr("t=%v: node %d uploads to dead node %d", tr.Start, from, to))
		}
		if ix.eventDuring(from, tr.Start, tr.End) || ix.eventDuring(to, tr.Start, tr.End) {
			return pt(i, 13, auditErr("trace record %d: %d->%d survives a fault event mid-flight; the engine aborts those",
				i, from, to))
		}
	}
	return nil
}

// aInterval is one transfer's flight, for the port-discipline checks.
type aInterval struct {
	start, end float64
	block      int32
}

// auditPorts checks the serial-upload and download-port disciplines for
// the nodes of one lane (node % aRecTasks == lane). Senders order
// before receivers and nodes ascend within a stage, matching the
// sequential auditor's check order exactly.
func auditPorts(c Config, res *Result, adversarial bool, honest []bool, lane int) *aPoint {
	bySender, sendEnd := laneBuckets(c, res, adversarial, honest, lane, true)
	byRecv, recvEnd := laneBuckets(c, res, adversarial, honest, lane, false)
	// Serial upload port: each sender's transfers must not overlap.
	for slot, u := 0, lane; u < c.Nodes; slot, u = slot+1, u+aRecTasks {
		ivs := bucket(bySender, sendEnd, slot)
		sortByStart(ivs)
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				return &aPoint{phase: 2, pos: u, err: auditErr("node %d uploads concurrently at t=%v (serial upload port)", u, ivs[i].start)}
			}
		}
	}
	// Download ports: bounded concurrency, and a block at most once in
	// flight to the same receiver at a time.
	var active []aInterval
	for slot, v := 0, lane; v < c.Nodes; slot, v = slot+1, v+aRecTasks {
		ivs := bucket(byRecv, recvEnd, slot)
		sortByStart(ivs)
		active = active[:0]
		for _, iv := range ivs {
			keep := active[:0]
			for _, a := range active {
				if a.end > iv.start {
					keep = append(keep, a)
				}
			}
			active = keep
			for _, a := range active {
				if a.block == iv.block {
					return &aPoint{phase: 2, pos: c.Nodes + v, err: auditErr("node %d has block %d twice in flight at t=%v", v, iv.block, iv.start)}
				}
			}
			active = append(active, iv)
			if c.DownloadPorts != Unlimited && len(active) > c.DownloadPorts {
				return &aPoint{phase: 2, pos: c.Nodes + v, err: auditErr("node %d exceeds %d download ports at t=%v", v, c.DownloadPorts, iv.start)}
			}
		}
	}
	return nil
}

// laneBuckets groups the lane's flights by sender (bySender) or by
// receiver in one flat array: a counting sort on the node's lane slot
// (node / aRecTasks) that keeps trace order within each node. end[s] is
// the exclusive end of slot s's bucket; see bucket.
func laneBuckets(c Config, res *Result, adversarial bool, honest []bool, lane int, bySender bool) (ivs []aInterval, end []int32) {
	node := func(tr *TransferRecord) int {
		if bySender {
			return int(tr.From)
		}
		return int(tr.To)
	}
	end = make([]int32, (c.Nodes-lane+aRecTasks-1)/aRecTasks)
	for i := range res.Trace {
		tr := &res.Trace[i]
		if v := node(tr); v%aRecTasks == lane && !recordSkip(c, *tr, adversarial, honest) {
			end[v/aRecTasks]++
		}
	}
	// Exclusive prefix sums: end[s] becomes slot s's start, and the
	// fill below advances it to the slot's end.
	total := int32(0)
	for s, n := range end {
		end[s] = total
		total += n
	}
	ivs = make([]aInterval, total)
	for i := range res.Trace {
		tr := &res.Trace[i]
		if v := node(tr); v%aRecTasks == lane && !recordSkip(c, *tr, adversarial, honest) {
			s := v / aRecTasks
			ivs[end[s]] = aInterval{tr.Start, tr.End, tr.Block}
			end[s]++
		}
	}
	return ivs, end
}

// bucket returns slot s's flights from laneBuckets' flat array.
func bucket(ivs []aInterval, end []int32, s int) []aInterval {
	start := int32(0)
	if s > 0 {
		start = end[s-1]
	}
	return ivs[start:end[s]]
}

// sortByStart orders flights by start time. slices.SortFunc runs the
// same pattern-defeating quicksort as sort.Slice with a `<` less,
// comparison for comparison, so equal starts (and NaN starts in a
// doctored trace) land in the order sort.Slice gives them, and the
// flight a port error names does not depend on which of the two runs.
func sortByStart(ivs []aInterval) {
	slices.SortFunc(ivs, func(a, b aInterval) int {
		switch {
		case a.start < b.start:
			return -1
		case b.start < a.start:
			return 1
		}
		return 0
	})
}

// auditReplay is the audit's one stateful task: fault-log sanity
// (phase 0), the sequential store-and-forward and double-delivery
// checks (phase 1, prios 14-15 — every stateless check of the same
// record keys below them), and the aggregate comparisons against the
// recorded Result (phase 3), in exactly the sequential auditor's order.
func auditReplay(c Config, res *Result, honest []bool, adversarial, open bool) *aPoint {
	sanity := func(i int, err error) *aPoint { return &aPoint{phase: 0, pos: i, err: err} }
	// Fault-log sanity: time-ordered, clients only, alternating states.
	// Open-system logs instead hold Arrive/Depart events: the swarm
	// starts empty (server only), ids are handed out in arrival order,
	// and departures are permanent.
	alive := make([]bool, c.Nodes)
	alive[0] = true
	if !open {
		for i := range alive {
			alive[i] = true
		}
	}
	nextArrive := 1
	departed, earlyExits := 0, 0
	for i, ev := range res.FaultLog {
		v := int(ev.Node)
		if v <= 0 || v >= c.Nodes {
			return sanity(i, auditErr("fault log: event %d targets invalid node %d", i, v))
		}
		if i > 0 && ev.Time < res.FaultLog[i-1].Time {
			return sanity(i, auditErr("fault log: event %d goes back in time (%v after %v)",
				i, ev.Time, res.FaultLog[i-1].Time))
		}
		switch ev.Kind {
		case fault.Crash:
			if open {
				return sanity(i, auditErr("t=%v: crash event in an open-system run", ev.Time))
			}
			if !alive[v] {
				return sanity(i, auditErr("t=%v: node %d crashes while already dead", ev.Time, v))
			}
			alive[v] = false
		case fault.Rejoin:
			if open {
				return sanity(i, auditErr("t=%v: rejoin event in an open-system run", ev.Time))
			}
			if alive[v] {
				return sanity(i, auditErr("t=%v: node %d rejoins while alive", ev.Time, v))
			}
			alive[v] = true
		case fault.Arrive:
			if !open {
				return sanity(i, auditErr("t=%v: arrival event in a closed-system run", ev.Time))
			}
			if v != nextArrive {
				return sanity(i, auditErr("t=%v: node %d arrives out of order (expected %d)", ev.Time, v, nextArrive))
			}
			nextArrive++
			alive[v] = true
		case fault.Depart:
			if !open {
				return sanity(i, auditErr("t=%v: departure event in a closed-system run", ev.Time))
			}
			if !alive[v] {
				return sanity(i, auditErr("t=%v: node %d departs while absent", ev.Time, v))
			}
			alive[v] = false
			departed++
		default:
			return sanity(i, auditErr("fault log: unknown event kind %d", uint8(ev.Kind)))
		}
	}

	// Replay state. arrivedAt[v][b] is when v last acquired b (+Inf =
	// not held); have mirrors it as a bitset for the final comparison.
	have := make([]*bitset.Set, c.Nodes)
	arrivedAt := make([][]float64, c.Nodes)
	for v := range have {
		have[v] = bitset.New(c.Blocks)
		arrivedAt[v] = make([]float64, c.Blocks)
		for b := range arrivedAt[v] {
			arrivedAt[v][b] = math.Inf(1)
		}
	}
	for b := 0; b < c.Blocks; b++ {
		have[0].Add(b)
		arrivedAt[0][b] = 0
	}
	completion := make([]float64, c.Nodes)
	delivered, lost, corrupt := 0, 0, 0
	advStalled, advGarbage := 0, 0
	honestUseful, honestWasted := 0, 0
	maxTime := 0.0

	logCursor := 0
	applyEvents := func(until float64) {
		for logCursor < len(res.FaultLog) && res.FaultLog[logCursor].Time < until {
			ev := res.FaultLog[logCursor]
			logCursor++
			if ev.Kind == fault.Rejoin && ev.Wiped {
				v := int(ev.Node)
				have[v].Clear()
				for b := range arrivedAt[v] {
					arrivedAt[v][b] = math.Inf(1)
				}
				completion[v] = 0
			}
			// Starvation accounting: a peer that departs before holding
			// the full file left early (same-time deliveries precede the
			// departure, matching the engine's event order).
			if ev.Kind == fault.Depart && !have[ev.Node].Full() {
				earlyExits++
			}
			if ev.Time > maxTime {
				maxTime = ev.Time
			}
		}
	}

	for i, tr := range res.Trace {
		if recordSkip(c, tr, adversarial, honest) {
			continue // a chunk task reports this record with a smaller key
		}
		from, to, b := int(tr.From), int(tr.To), int(tr.Block)
		// Store-and-forward at start time: the sender must have acquired
		// the block (and not lost it to a wipe) by tr.Start.
		applyEvents(tr.End)
		if arrivedAt[from][b] > tr.Start {
			return &aPoint{phase: 1, pos: i, prio: 14,
				err: auditErr("t=%v: node %d sends block %d it did not hold at upload start", tr.Start, from, b)}
		}
		if tr.End > maxTime {
			maxTime = tr.End
		}
		if tr.Lost {
			if tr.Adversary {
				if tr.Corrupt {
					advGarbage++
				} else {
					advStalled++
				}
				if honest[to] {
					honestWasted++
				}
			} else if tr.Corrupt {
				corrupt++
			} else {
				lost++
			}
			continue
		}
		if !have[to].Add(b) {
			return &aPoint{phase: 1, pos: i, prio: 15,
				err: auditErr("t=%v: node %d delivered block %d it already holds", tr.End, to, b)}
		}
		arrivedAt[to][b] = tr.End
		delivered++
		if adversarial && honest[to] {
			honestUseful++
		}
		if have[to].Full() {
			completion[to] = tr.End
		}
	}
	applyEvents(math.Inf(1))

	agg := func(err error) *aPoint { return &aPoint{phase: 3, err: err} }
	// The run must have finished under the engine's criterion: every
	// alive client — every alive *honest* client under an adversary
	// plan — holds the whole file. An open run instead ends on its
	// verdict: Drained requires an exhausted pool and no peer
	// mid-download; Unstable is a bounded truncation with no completion
	// requirement, but the starvation audit below still must account
	// for every peer that entered.
	if open {
		o := res.Open
		arrived := nextArrive - 1
		occupancy := 0
		comp := 0
		for v := 1; v < c.Nodes; v++ {
			if alive[v] && !have[v].Full() {
				occupancy++
			}
			if completion[v] != 0 {
				comp++
			}
		}
		switch o.Verdict {
		case arrival.VerdictDrained:
			if arrived != c.Nodes-1 {
				return agg(auditErr("drained verdict with %d/%d arrivals replayed", arrived, c.Nodes-1))
			}
			if occupancy != 0 {
				return agg(auditErr("drained verdict but %d present clients incomplete", occupancy))
			}
		case arrival.VerdictUnstable:
			// Bounded truncation: nothing further to require.
		default:
			return agg(auditErr("open result carries verdict %v", o.Verdict))
		}
		if o.Arrived != arrived || o.Departed != departed || o.EarlyExits != earlyExits {
			return agg(auditErr("replay counts %d arrived / %d departed / %d early exits, result reports %d / %d / %d",
				arrived, departed, earlyExits, o.Arrived, o.Departed, o.EarlyExits))
		}
		if o.Completed != comp {
			return agg(auditErr("replay counts %d completions, open result reports %d", comp, o.Completed))
		}
		if o.FinalOccupancy != occupancy {
			return agg(auditErr("replay leaves %d peers mid-download, open result reports %d", occupancy, o.FinalOccupancy))
		}
		if o.Arrived != o.Completed+o.EarlyExits+o.FinalOccupancy {
			return agg(auditErr("open run starves silently: %d arrived != %d completed + %d early exits + %d still present",
				o.Arrived, o.Completed, o.EarlyExits, o.FinalOccupancy))
		}
	} else {
		for v := 1; v < c.Nodes; v++ {
			if adversarial && !honest[v] {
				continue
			}
			if alive[v] && !have[v].Full() {
				return agg(auditErr("replayed trace leaves alive client %d incomplete (%d/%d blocks)",
					v, have[v].Count(), c.Blocks))
			}
		}
	}
	if delivered != res.Transfers {
		return agg(auditErr("replay counts %d deliveries, result reports %d", delivered, res.Transfers))
	}
	if lost != res.Lost || corrupt != res.Corrupt {
		return agg(auditErr("replay counts %d lost + %d corrupt, result reports %d + %d",
			lost, corrupt, res.Lost, res.Corrupt))
	}
	if advStalled != res.AdvStalled || advGarbage != res.AdvCorrupt {
		return agg(auditErr("replay counts %d stalled + %d garbage adversary drops, result reports %d + %d",
			advStalled, advGarbage, res.AdvStalled, res.AdvCorrupt))
	}
	if adversarial && (honestUseful != res.HonestUseful || honestWasted != res.HonestWasted) {
		return agg(auditErr("replay counts %d honest-useful / %d honest-wasted, result reports %d / %d",
			honestUseful, honestWasted, res.HonestUseful, res.HonestWasted))
	}
	if len(res.Trace) > 0 || len(res.FaultLog) > 0 {
		// An open run's clock can outlive its last logged event: the
		// final handled event may be an unlogged protocol timer, and
		// finish() stamps CompletionTime with the engine clock.
		if open && res.CompletionTime < maxTime {
			return agg(auditErr("CompletionTime %v precedes the last recorded event (%v)",
				res.CompletionTime, maxTime))
		}
		if !open && res.CompletionTime != maxTime {
			return agg(auditErr("CompletionTime %v does not match the last recorded event (%v)",
				res.CompletionTime, maxTime))
		}
	}
	for v := 0; v < c.Nodes; v++ {
		if !have[v].Equal(res.FinalHave[v]) {
			return agg(auditErr("node %d final block set differs from recorded snapshot", v))
		}
		if v > 0 && completion[v] != res.ClientCompletion[v] {
			return agg(auditErr("node %d completion time: replay %v, result %v",
				v, completion[v], res.ClientCompletion[v]))
		}
	}
	if res.FinalAlive != nil {
		for v, a := range res.FinalAlive {
			if alive[v] != a {
				return agg(auditErr("node %d final liveness: replay %v, result %v", v, alive[v], a))
			}
		}
	}
	return nil
}

// RunAudit replays a recorded asynchronous run and verifies every
// engine invariant post hoc, given only the artifacts the run leaves
// behind (Config, Trace, FaultLog, FinalHave):
//
//   - the serial upload port: no sender has two overlapping transfers;
//   - download ports: no receiver exceeds DownloadPorts concurrent
//     receives, and no block is twice in flight to the same receiver;
//   - bandwidth: every transfer's duration is 1/min(up(u), down(v)/P);
//   - store-and-forward: the sender held the block when the transfer
//     started (wiped rejoins are replayed, so a block lost to a wipe
//     must be re-acquired before it can be forwarded again);
//   - liveness: both endpoints were alive for the whole flight — a
//     crash mid-transfer must have aborted it, so an aborted transfer
//     appearing in the trace is an error;
//   - accounting: delivery, loss, and corruption counts, per-client
//     completion times, the completion time, and the final block and
//     liveness state all match the recorded Result.
//
// A Result produced by Run with RecordTrace always passes; a doctored
// trace fails with a pinpointed ErrAudit. cfg.Fault and cfg.Adversary
// are ignored — the replay takes its adversity from res.FaultLog and
// res.Strategies, so auditing never consumes a (single-use) plan. For
// adversarial runs the drop causes are re-counted per kind and the
// honest-only completion criterion and honest stall accounting are
// re-derived from the trace.
//
// The audit runs as a fixed task partition — one stateful replay, the
// stateless per-record checks over aRecTasks contiguous record chunks,
// and the port disciplines over aRecTasks node lanes — executed on
// cfg.AuditWorkers OS workers and merged by smallest (phase, pos,
// prio) key. The partition does not depend on the worker count, so the
// verdict and the error text are byte-identical for every value,
// including the inline sequential AuditWorkers <= 1 path.
func RunAudit(cfg Config, res *Result) error {
	cfg.Fault = nil
	cfg.Adversary = nil
	cfg.Arrivals = nil // open replays take arrivals from res.FaultLog
	if err := cfg.Validate(); err != nil {
		return err
	}
	c := cfg.withDefaults()
	if res == nil {
		return auditErr("nil result")
	}
	if c.Nodes == 1 {
		return nil // vacuous run
	}
	if res.FinalHave == nil {
		return auditErr("result has no FinalHave snapshot; run with RecordTrace")
	}
	if len(res.FinalHave) != c.Nodes {
		return auditErr("FinalHave has %d entries for %d nodes", len(res.FinalHave), c.Nodes)
	}
	if len(res.ClientCompletion) != c.Nodes {
		return auditErr("ClientCompletion has %d entries for %d nodes", len(res.ClientCompletion), c.Nodes)
	}
	if res.FinalAlive != nil && len(res.FinalAlive) != c.Nodes {
		return auditErr("FinalAlive has %d entries for %d nodes", len(res.FinalAlive), c.Nodes)
	}
	adversarial := res.Strategies != nil
	var honest []bool
	if adversarial {
		if len(res.Strategies) != c.Nodes {
			return auditErr("Strategies has %d entries for %d nodes", len(res.Strategies), c.Nodes)
		}
		if res.Strategies[0] != adversary.Honest {
			return auditErr("node 0 (the server) is recorded as %v; it must stay honest", res.Strategies[0])
		}
		honest = make([]bool, c.Nodes)
		for v, sg := range res.Strategies {
			honest[v] = sg == adversary.Honest
		}
	}
	open := res.Open != nil
	ix := buildEventIndex(res.FaultLog, open, c.Nodes)

	workers := c.AuditWorkers
	if workers <= 0 {
		workers = 1
	}
	pts, perr := parallel.Map(workers, 1+2*aRecTasks, func(i int) (*aPoint, error) {
		switch {
		case i == 0:
			return auditReplay(c, res, honest, adversarial, open), nil
		case i <= aRecTasks:
			return auditRecords(c, res, ix, honest, adversarial, i-1), nil
		default:
			return auditPorts(c, res, adversarial, honest, i-1-aRecTasks), nil
		}
	})
	if perr != nil {
		return perr
	}
	var pt *aPoint
	for _, p := range pts {
		pt = aBetter(pt, p)
	}
	if pt != nil {
		return pt.err
	}
	return nil
}
