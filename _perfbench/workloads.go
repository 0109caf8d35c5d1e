package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"barterdist"
	"barterdist/internal/analysis"
	"barterdist/internal/arrival"
	"barterdist/internal/asim"
	"barterdist/internal/graph"
	"barterdist/internal/mechanism"
	"barterdist/internal/randomized"
	"barterdist/internal/schedule"
	"barterdist/internal/simulate"
	"barterdist/internal/trace"
	"barterdist/internal/xrand"
)

// arrivalRate is async-open's Poisson arrival rate λ (peers per unit
// time).
const arrivalRate = 0.8

// prepared is one workload instance after set-up: the engine
// configuration and the scheduler (sync engine) or protocol (asim).
type prepared struct {
	simCfg  simulate.Config
	sched   simulate.Scheduler
	asimCfg asim.Config
	proto   asim.Protocol
}

// workload is one configuration the benchmark runs.
type workload struct {
	name string
	n, k int
	// setupReps is how many times set-up is timed per repetition.
	setupReps int
	setup     func(w *workload, seed uint64, tr *tracer) (*prepared, error)
	// async selects the asim engine; otherwise the sync engine runs.
	async bool
	// tickSpan names the scheduler's Tick spans in the traced run.
	tickSpan string
	// credit runs the two checks core.Run makes on a recorded trace:
	// MinimalCreditLimitLog and VerifyCreditLimitedLog at s = 1.
	credit bool
	// audit replays the run through the engine's RunAudit.
	audit bool
	// optimal requires T to equal Theorem 1's bound exactly.
	optimal bool
	// facade is the same run as a barterdist.Config, for the parity
	// check; nil where the facade has no equivalent (asim).
	facade func(w *workload, seed uint64) barterdist.Config
}

var workloads = []*workload{
	{
		name: "credit-starved", n: 3000, k: 64, setupReps: 25,
		tickSpan: "randomized.Tick", credit: true,
		setup: func(w *workload, seed uint64, tr *tracer) (*prepared, error) {
			id := tr.begin("randomized.New")
			s, err := randomized.New(randomized.Options{
				Policy: randomized.Random, CreditLimit: 1, DownloadCap: 1, Seed: seed,
			})
			tr.end(id)
			if err != nil {
				return nil, err
			}
			return &prepared{
				simCfg: simulate.Config{Nodes: w.n, Blocks: w.k, DownloadCap: 1, RecordTrace: true},
				sched:  s,
			}, nil
		},
		facade: func(w *workload, seed uint64) barterdist.Config {
			return barterdist.Config{
				Nodes: w.n, Blocks: w.k, Algorithm: barterdist.AlgoRandomized,
				Overlay: barterdist.OverlayComplete, Policy: barterdist.PolicyRandom,
				CreditLimit: 1, DownloadCap: 1, Seed: seed,
				RecordTrace: true, Verify: barterdist.MechanismCredit,
			}
		},
	},
	{
		name: "coop-overlay", n: 2000, k: 1000, setupReps: 2,
		tickSpan: "randomized.Tick",
		setup: func(w *workload, seed uint64, tr *tracer) (*prepared, error) {
			id := tr.begin("graph.RandomRegular")
			g, err := connectedRegular(w.n, 20, seed)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("randomized.New")
			s, err := randomized.New(randomized.Options{
				Graph: g, Policy: randomized.RarestFirst, DownloadCap: 1, Seed: seed,
			})
			tr.end(id)
			if err != nil {
				return nil, err
			}
			return &prepared{
				simCfg: simulate.Config{Nodes: w.n, Blocks: w.k, DownloadCap: 1},
				sched:  s,
			}, nil
		},
		facade: func(w *workload, seed uint64) barterdist.Config {
			return barterdist.Config{
				Nodes: w.n, Blocks: w.k, Algorithm: barterdist.AlgoRandomized,
				Overlay: barterdist.OverlayRandomRegular, Degree: 20,
				Policy: barterdist.PolicyRarestFirst, Seed: seed,
			}
		},
	},
	{
		name: "pipeline-audit", n: 4096, k: 512, setupReps: 25,
		tickSpan: "schedule.Tick", credit: true, audit: true, optimal: true,
		setup: func(w *workload, seed uint64, tr *tracer) (*prepared, error) {
			id := tr.begin("schedule.NewBinomialPipeline")
			s, err := schedule.NewBinomialPipeline(w.n, w.k)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			return &prepared{
				simCfg: simulate.Config{Nodes: w.n, Blocks: w.k, RecordTrace: true},
				sched:  s,
			}, nil
		},
		facade: func(w *workload, seed uint64) barterdist.Config {
			return barterdist.Config{
				Nodes: w.n, Blocks: w.k, Algorithm: barterdist.AlgoBinomialPipeline,
				Seed: seed, RecordTrace: true, Verify: barterdist.MechanismCredit,
			}
		},
	},
	{
		name: "async-open", n: 2000, k: 16, setupReps: 25,
		async: true, audit: true,
		setup: func(w *workload, seed uint64, tr *tracer) (*prepared, error) {
			id := tr.begin("arrival.NewPlan")
			// λ stays below the server's upload rate of one block per
			// unit time. Peers leave at completion, and above that rate
			// a swarm can fall into the missing-block syndrome, where
			// occupancy grows and each delivery re-polls every parked
			// peer at O(n): such a run does not finish in minutes.
			plan, err := arrival.NewPlan(arrival.Options{Seed: seed, Rate: arrivalRate})
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("asim.NewAsyncRandomized")
			p := asim.NewAsyncRandomized(nil, true, 1, seed^0x5851f42d4c957f2d)
			tr.end(id)
			return &prepared{
				asimCfg: asim.Config{
					Nodes: w.n, Blocks: w.k, DownloadPorts: 1,
					RecordTrace: true, Arrivals: plan,
				},
				proto: p,
			}, nil
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// connectedRegular builds the random d-regular overlay exactly as
// core.Run does for OverlayRandomRegular: the same seed derivation and
// the same retries until the graph is connected.
func connectedRegular(n, d int, seed uint64) (*graph.Graph, error) {
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	for attempt := 0; attempt <= 20; attempt++ {
		g, err := graph.RandomRegular(n, d, rng)
		if err != nil {
			return nil, err
		}
		if g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("no connected %d-regular overlay on %d nodes", d, n)
}

// check is one verified property of a run.
type check struct {
	name string
	err  error
}

func want(name string, ok bool, format string, args ...any) check {
	if ok {
		return check{name: name}
	}
	return check{name: name, err: fmt.Errorf(format, args...)}
}

// outcome is what one repetition produced.
type outcome struct {
	transfers int
	// ratio is completion_ratio: T over Theorem 1's bound for closed
	// runs, mean sojourn over k for the open run.
	ratio  float64
	checks []check
	// verdicts summarise the checks' results for the fingerprint.
	verdicts string
	simRes   *simulate.Result
	asimRes  *asim.Result
}

// errText renders a verdict for a fingerprint.
func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// run executes one prepared instance and its checks. With a tracer it
// reaches the scheduler or protocol through a forwarding wrapper and
// records a span around every layer call.
func (w *workload) run(p *prepared, tr *tracer, ph *phaseAlloc) (*outcome, error) {
	if w.async {
		return w.runAsync(p, tr, ph)
	}
	sched := p.sched
	if tr != nil {
		sched = wrapScheduler(sched, tr, w.tickSpan)
	}
	a0 := ph.mark()
	id := tr.begin("simulate.Run")
	res, err := simulate.Run(p.simCfg, sched)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("simulate.Run: %w", err)
	}
	a1 := ph.mark()
	o := &outcome{transfers: res.TotalTransfers, simRes: res}
	bound := analysis.CooperativeLowerBound(w.n, w.k)
	o.ratio = float64(res.CompletionTime) / float64(bound)
	want0 := (w.n - 1) * w.k
	o.checks = append(o.checks,
		want("T>=bound", res.CompletionTime >= bound, "T = %d below Theorem 1's bound %d", res.CompletionTime, bound),
		want("transfers", res.TotalTransfers == want0 && res.UsefulTransfers == want0,
			"transfers = %d (useful %d), want (n-1)k = %d", res.TotalTransfers, res.UsefulTransfers, want0))
	if w.optimal {
		o.checks = append(o.checks, want("T=bound", res.CompletionTime == bound,
			"T = %d, want Theorem 1's bound %d", res.CompletionTime, bound))
	}
	minCredit, verifyErr, auditErr := -1, error(nil), error(nil)
	if w.credit {
		id = tr.begin("mechanism.MinimalCreditLimitLog")
		minCredit = mechanism.MinimalCreditLimitLog(res.Trace, false, 0)
		tr.end(id)
		id = tr.begin("mechanism.VerifyCreditLimitedLog")
		verifyErr = mechanism.VerifyCreditLimitedLog(res.Trace, true, 1, 0)
		tr.end(id)
		o.checks = append(o.checks,
			want("min-credit", minCredit <= 1, "minimal credit limit %d, want <= 1", minCredit),
			check{name: "credit-verify", err: verifyErr})
	}
	if w.audit {
		id = tr.begin("simulate.RunAudit")
		auditErr = simulate.RunAudit(p.simCfg, res)
		tr.end(id)
		o.checks = append(o.checks, check{name: "audit", err: auditErr})
	}
	ph.add(a0, a1, ph.mark())
	o.verdicts = fmt.Sprintf("mincredit=%d verify=%s audit=%s", minCredit, errText(verifyErr), errText(auditErr))
	return o, nil
}

func (w *workload) runAsync(p *prepared, tr *tracer, ph *phaseAlloc) (*outcome, error) {
	proto := p.proto
	if tr != nil {
		proto = wrapProtocol(proto, tr)
	}
	a0 := ph.mark()
	id := tr.begin("asim.Run")
	res, err := asim.Run(p.asimCfg, proto)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("asim.Run: %w", err)
	}
	a1 := ph.mark()
	o := &outcome{transfers: res.Transfers, asimRes: res}
	op := res.Open
	if op == nil {
		return nil, fmt.Errorf("asim.Run returned no open-system result")
	}
	o.ratio = op.SojournMean / float64(w.k)
	o.checks = append(o.checks,
		want("drained", op.Verdict == arrival.VerdictDrained, "verdict %v (reason %v), want drained", op.Verdict, op.Reason),
		want("arrived=completed", op.Arrived == w.n-1 && op.Completed == op.Arrived,
			"arrived %d, completed %d, want both %d", op.Arrived, op.Completed, w.n-1),
		want("transfers", res.Transfers == op.Completed*w.k,
			"transfers = %d, want completed·k = %d", res.Transfers, op.Completed*w.k))
	id = tr.begin("asim.RunAudit")
	auditErr := asim.RunAudit(p.asimCfg, res)
	tr.end(id)
	o.checks = append(o.checks, check{name: "audit", err: auditErr})
	ph.add(a0, a1, ph.mark())
	o.verdicts = "audit=" + errText(auditErr)
	return o, nil
}

// fingerprint hashes everything observable about a run, so two runs
// can be compared for byte-identical results.
func (o *outcome) fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	if r := o.asimRes; r != nil {
		put(math.Float64bits(r.CompletionTime))
		put(uint64(r.Transfers))
		for _, c := range r.ClientCompletion {
			put(math.Float64bits(c))
		}
		for _, tr := range r.Trace {
			put(math.Float64bits(tr.Start))
			put(math.Float64bits(tr.End))
			put(uint64(tr.From)<<42 ^ uint64(tr.To)<<21 ^ uint64(tr.Block))
		}
		op := r.Open
		put(math.Float64bits(op.SojournMean))
		put(uint64(op.Arrived)<<32 | uint64(op.Completed))
		return fmt.Sprintf("T=%g transfers=%d sojourn=%g %s hash=%016x",
			r.CompletionTime, r.Transfers, op.SojournMean, o.verdicts, h.Sum64())
	}
	r := o.simRes
	for _, c := range r.ClientCompletion {
		put(uint64(c))
	}
	for _, u := range r.UploadsPerTick {
		put(uint64(u))
	}
	traceHash := "none"
	if r.Trace != nil {
		traceHash = fmt.Sprintf("%016x", traceFingerprint(r.Trace))
	}
	return fmt.Sprintf("T=%d transfers=%d useful=%d %s trace=%s hash=%016x",
		r.CompletionTime, r.TotalTransfers, r.UsefulTransfers, o.verdicts, traceHash, h.Sum64())
}

// traceFingerprint hashes a trace's tick boundaries, transfers and
// drops.
func traceFingerprint(l *trace.Log) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	put := func(a, b, c uint32) {
		for i := 0; i < 4; i++ {
			buf[i], buf[4+i], buf[8+i] = byte(a>>(8*i)), byte(b>>(8*i)), byte(c>>(8*i))
		}
		h.Write(buf[:])
	}
	for t := 0; t < l.Ticks(); t++ {
		start, end := l.TickSpan(t)
		put(uint32(t), uint32(start), uint32(end))
	}
	var w trace.Win
	for i := 0; i < l.Len(); {
		from, to, block, base, end := l.Window(&w, i)
		for j := i - base; j < end-base; j++ {
			put(from[j], to[j], block[j])
		}
		i = end
	}
	var idx []int32
	var kinds []uint8
	for t := 0; t < l.Ticks(); t++ {
		idx, kinds = l.AppendTickDrops(t, idx[:0], kinds[:0])
		for j, d := range idx {
			k := uint32(0)
			if j < len(kinds) {
				k = uint32(kinds[j])
			}
			put(uint32(t), uint32(d), k)
		}
	}
	return h.Sum64()
}

// probeTrace measures the trace layer from outside on a recorded log:
// re-appending every tick into a fresh Log (append and frame seal), a
// full decode walk, and the columns' footprint. The re-appended log
// must fingerprint like the original.
func probeTrace(l *trace.Log, tr *tracer) (appendNs, decodeNs, bytesPer float64, c check) {
	n := l.Len()
	ticks := make([][]trace.Transfer, l.Ticks())
	dropIdx := make([][]int32, l.Ticks())
	dropKinds := make([][]uint8, l.Ticks())
	for t := range ticks {
		ticks[t] = l.AppendTickTransfers(t, nil)
		dropIdx[t], dropKinds[t] = l.AppendTickDrops(t, nil, nil)
	}
	fresh := trace.New(l.Kinded())
	fresh.Reserve(n, l.Ticks(), l.Drops())
	id := tr.begin("trace.AppendTick")
	for t := range ticks {
		fresh.AppendTick(ticks[t], dropIdx[t], dropKinds[t])
	}
	tr.end(id)
	appendNs = float64(tr.spans[id].End-tr.spans[id].Start) / float64(n)

	var w trace.Win
	id = tr.begin("trace.Window")
	for i := 0; i < n; {
		_, _, _, _, i = l.Window(&w, i)
	}
	tr.end(id)
	decodeNs = float64(tr.spans[id].End-tr.spans[id].Start) / float64(n)
	bytesPer = float64(l.MemSize()) / float64(n)
	c = want("trace-reappend", traceFingerprint(fresh) == traceFingerprint(l),
		"re-appended trace differs from the recorded one")
	return appendNs, decodeNs, bytesPer, c
}
