// Command perfbench is barterdist's benchmark: it runs one workload
// from one process on the library's defaults, checks every output and
// prints the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a separately traced run. See README.md in this directory.
//
//	perfbench --workload coop-overlay --seed 1 --seconds 40 --trace 0
//	perfbench steady --workload coop-overlay --runs 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"barterdist"
	"barterdist/internal/simulate"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steadyMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 40, "how long to measure, parity runs included")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w := findWorkload(*name)
	if w == nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags; workloads:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	var rep *report
	if *traced == 1 {
		rep = b.traced()
	} else {
		rep = b.timed()
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}

// bench is one invocation: a workload, its seed and the time budget.
type bench struct {
	w      *workload
	seed   uint64
	budget time.Duration

	checks []check
}

// minReps is the fewest repetitions a run makes, however long they take.
const minReps = 3

// subSeed derives repetition r's input seed from the run's seed
// (SplitMix64), so repetitions cover several inputs and a run's median
// depends little on any one of them.
func subSeed(seed uint64, r int) uint64 {
	z := seed + uint64(r+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (b *bench) addChecks(prefix string, cs []check) {
	for _, c := range cs {
		c.name = prefix + c.name
		b.checks = append(b.checks, c)
	}
}

func (b *bench) fail(name string, err error) {
	b.checks = append(b.checks, check{name: name, err: err})
}

// setups builds count instances back to back after one collection,
// timing each on the CPU clock of the constructing thread, and returns
// the last instance with the timings. The constructors run on the
// calling goroutine, so the thread clock sees all of their work but
// none of the background collector's, which keeps even microsecond
// set-ups steady.
func (b *bench) setups(seed uint64, count int, tr *tracer) (*prepared, []float64, error) {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var p *prepared
	var err error
	ts := make([]float64, 0, count)
	for i := 0; i < count; i++ {
		c0 := threadCPUNow()
		p, err = b.w.setup(b.w, seed, tr)
		ts = append(ts, (threadCPUNow() - c0).Seconds())
		if err != nil {
			return nil, nil, err
		}
	}
	return p, ts, nil
}

// repeat runs one prepared instance and its checks after a collection,
// timed on the process CPU clock. It returns the outcome and the CPU
// time from the end of set-up to the end of the last check.
func (b *bench) repeat(p *prepared, tr *tracer, ph *phaseAlloc) (*outcome, time.Duration, error) {
	runtime.GC()
	c0 := cpuNow()
	o, err := b.w.run(p, tr, ph)
	return o, cpuNow() - c0, err
}

// report is what one invocation prints.
type report struct {
	header    []string
	lines     []string
	metrics   []metric
	attempted int
	failed    int
}

type metric struct {
	name, unit string
	value      float64
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// timed is the end-to-end run: the parity runs against the facade and
// the traced code path first, as warm-up, then timed repetitions until
// the budget, which covers the parity runs too, is spent.
func (b *bench) timed() *report {
	start := time.Now()
	host0, hostOK := readHostTicks()
	seed0 := subSeed(b.seed, 0)
	facadeFP := b.facadeRun(seed0)
	tracedFP := b.tracedRun(seed0)
	var setupS, ratios []float64
	var transfers int
	var cpuTotal, wallTotal time.Duration
	for r := 0; r < minReps || b.room(start, wallTotal, r); r++ {
		t0 := time.Now()
		seed := subSeed(b.seed, r)
		p, ts, err := b.setups(seed, b.w.setupReps, nil)
		setupS = append(setupS, ts...)
		if err != nil {
			b.fail("setup", err)
			break
		}
		o, cpu, err := b.repeat(p, nil, nil)
		if err != nil {
			b.fail("run", err)
			break
		}
		wallTotal += time.Since(t0)
		fmt.Fprintf(os.Stderr, "rep %d seed %d cpu %.3f s transfers/s %.0f ratio %.4f\n",
			r, seed, cpu.Seconds(), float64(o.transfers)/cpu.Seconds(), o.ratio)
		transfers += o.transfers
		cpuTotal += cpu
		ratios = append(ratios, o.ratio)
		b.addChecks(fmt.Sprintf("rep%d/", r), o.checks)
		if r == 0 {
			fp := o.fingerprint()
			b.agree("facade-parity", facadeFP, fp)
			b.agree("traced-parity", tracedFP, fp)
		}
	}
	rep := b.newReport(host0, hostOK, len(ratios))
	rate := 0.0
	if cpuTotal > 0 {
		rate = float64(transfers) / cpuTotal.Seconds()
	}
	rep.add("transfers_per_cpu_s", "1/s", rate)
	rep.add("setup_s", "s", median(setupS))
	rep.add("peak_rss_mib", "MiB", peakRSSMiB())
	rep.add("completion_ratio", "ratio", mean(ratios))
	rep.add("pass_frac", "fraction", float64(rep.attempted-rep.failed)/float64(max(rep.attempted, 1)))
	return rep
}

// room reports whether another repetition, taking as long as the
// average of the r done in wall, still ends within the budget.
func (b *bench) room(start time.Time, wall time.Duration, r int) bool {
	return time.Since(start)+wall/time.Duration(r) <= b.budget
}

// facadeRun runs the same configuration through the barterdist facade
// and returns its fingerprint: "" where the workload has no facade
// equivalent or the run failed, which a failed check then reports.
func (b *bench) facadeRun(seed uint64) string {
	if b.w.facade == nil {
		return ""
	}
	res, verifyErr := barterdist.Run(b.w.facade(b.w, seed))
	if res == nil {
		b.fail("facade-parity", fmt.Errorf("barterdist.Run: %w", verifyErr))
		return ""
	}
	o := &outcome{simRes: res.Sim}
	minCredit, auditErr := -1, error(nil)
	if b.w.credit {
		minCredit = res.MinimalCreditLimit
	}
	if b.w.audit {
		auditErr = simulate.RunAudit(res.SimConfig, res.Sim)
	}
	o.verdicts = fmt.Sprintf("mincredit=%d verify=%s audit=%s", minCredit, errText(verifyErr), errText(auditErr))
	return o.fingerprint()
}

// tracedRun runs one input through the traced code path and returns
// its fingerprint, or "" after a failed check.
func (b *bench) tracedRun(seed uint64) string {
	tr := newTracer()
	p, _, err := b.setups(seed, 1, tr)
	if err != nil {
		b.fail("traced-parity", err)
		return ""
	}
	o, _, err := b.repeat(p, tr, nil)
	if err != nil {
		b.fail("traced-parity", err)
		return ""
	}
	return o.fingerprint()
}

// agree requires a parity run's fingerprint to equal the timed run's.
// An empty got is a run that did not happen (no facade equivalent) or
// already failed its own check.
func (b *bench) agree(name, got, fp string) {
	if got == "" {
		return
	}
	b.checks = append(b.checks, want(name, got == fp, "%s gave %s, the timed run %s", name, got, fp))
}

// newReport closes the books: the header and the checks' tally.
func (b *bench) newReport(host0 hostTicks, hostOK bool, reps int) *report {
	steal := 0.0
	if host1, ok := readHostTicks(); ok && hostOK {
		steal = stealFrac(host0, host1)
	}
	rep := &report{}
	rep.header = []string{
		fmt.Sprintf("workload=%s seed=%d reps=%d", b.w.name, b.seed, reps),
		fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s commit=%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit()),
		fmt.Sprintf("host.steal_frac=%.6f", steal),
	}
	rep.attempted = len(b.checks)
	for _, c := range b.checks {
		if c.err != nil {
			rep.failed++
			rep.lines = append(rep.lines, fmt.Sprintf("FAIL %s: %v", c.name, c.err))
		}
	}
	return rep
}

// commit names the source revision; run.sh passes it in, and a
// checkout without git history has none.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func (r *report) print(out io.Writer) {
	for _, h := range r.header {
		fmt.Fprintln(out, "#", h)
	}
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, ms})
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Fprintln(out, string(line))
}

// layerMetrics are the per-layer metrics of one traced repetition.
type layerMetrics map[string]float64

// traced is the per-layer run: the facade parity run first, then pairs
// of an untraced and a traced repetition on the same input until the
// budget is spent. Each metric is the median over the traced
// repetitions.
func (b *bench) traced() *report {
	start := time.Now()
	host0, hostOK := readHostTicks()
	facadeFP := b.facadeRun(subSeed(b.seed, 0))
	var plain, withSpans []float64
	var samples []layerMetrics
	var lastSpans []span
	var wallTotal time.Duration
	for r := 0; r < minReps || b.room(start, wallTotal, r); r++ {
		t0 := time.Now()
		seed := subSeed(b.seed, r)
		p, _, err := b.setups(seed, 1, nil)
		if err != nil {
			b.fail("setup", err)
			break
		}
		o, cpu, err := b.repeat(p, nil, nil)
		if err != nil {
			b.fail("run", err)
			break
		}
		plain = append(plain, cpu.Seconds())
		b.addChecks(fmt.Sprintf("rep%d/", r), o.checks)
		fp := o.fingerprint()
		if r == 0 {
			b.agree("facade-parity", facadeFP, fp)
		}

		lm, spans, cpu, err := b.tracedRep(seed, fp)
		if err != nil {
			b.fail("traced-run", err)
			break
		}
		withSpans = append(withSpans, cpu.Seconds())
		samples = append(samples, lm)
		lastSpans = spans
		wallTotal += time.Since(t0)
	}
	rep := b.newReport(host0, hostOK, len(samples))
	names := layerMetricNames()
	for _, n := range names {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, s[n.name])
		}
		rep.add(n.name, n.unit, median(xs))
	}
	over := 0.0
	if len(plain) > 0 {
		over = median(withSpans)/median(plain) - 1
	}
	for i := range rep.metrics {
		switch rep.metrics[i].name {
		case "bench.tracing_overhead_frac":
			rep.metrics[i].value = over
		case "host.steal_frac":
			if host1, ok := readHostTicks(); ok && hostOK {
				rep.metrics[i].value = stealFrac(host0, host1)
			}
		}
	}
	rep.lines = append(rep.lines, dominance(lastSpans)...)
	if err := b.writeSpans(lastSpans); err != nil {
		rep.lines = append(rep.lines, "spans not written: "+err.Error())
	}
	return rep
}

// tracedRep runs one repetition with spans around every layer call and
// returns its per-layer metrics and spans.
func (b *bench) tracedRep(seed uint64, fp string) (layerMetrics, []span, time.Duration, error) {
	tr := newTracer()
	a0 := totalAllocMiB()
	root := tr.begin("setup")
	p, _, err := b.setups(seed, 1, tr)
	tr.end(root)
	if err != nil {
		return nil, nil, 0, err
	}
	setupAlloc := totalAllocMiB() - a0
	ph := &phaseAlloc{}
	g0 := readGCClock()
	root = tr.begin("run")
	o, cpu, err := b.repeat(p, tr, ph)
	tr.end(root)
	g1 := readGCClock()
	if err != nil {
		return nil, nil, 0, err
	}
	b.addChecks("traced/", o.checks)
	b.checks = append(b.checks, want("traced-parity", o.fingerprint() == fp,
		"traced run gave %s, untraced %s", o.fingerprint(), fp))

	lm := layerMetrics{
		"runtime.setup_alloc_mib": setupAlloc,
		"runtime.sim_alloc_mib":   ph.sim,
		"runtime.audit_alloc_mib": ph.audit,
		"runtime.gc_cpu_frac":     gcFrac(g0, g1),
	}
	if o.simRes != nil && o.simRes.Trace != nil && o.simRes.Trace.Len() > 0 {
		root = tr.begin("probe")
		ap, dc, bp, c := probeTrace(o.simRes.Trace, tr)
		tr.end(root)
		b.checks = append(b.checks, c)
		lm["trace.append_ns_per_transfer"] = ap
		lm["trace.decode_ns_per_transfer"] = dc
		lm["trace.bytes_per_transfer"] = bp
	}
	lt := layerTotals(tr.spans)
	sec := func(name string) float64 { return float64(lt[name].self) / 1e9 }
	transfers := float64(max(o.transfers, 1))
	lm["randomized.tick_s"] = sec("randomized.Tick")
	lm["randomized.ns_per_transfer"] = sec("randomized.Tick") * 1e9 / transfers
	lm["randomized.new_s"] = sec("randomized.New")
	lm["schedule.tick_s"] = sec("schedule.Tick")
	lm["simulate.engine_s"] = sec("simulate.Run")
	if o.simRes != nil {
		lm["simulate.ticks"] = float64(o.simRes.CompletionTime)
	}
	lm["simulate.audit_s"] = sec("simulate.RunAudit")
	lm["mechanism.min_credit_s"] = sec("mechanism.MinimalCreditLimitLog")
	lm["mechanism.verify_s"] = sec("mechanism.VerifyCreditLimitedLog")
	nu := lt[spanNextUpload]
	lm["asim.protocol_s"] = sec(spanNextUpload) + sec(spanOnDeliver) + sec(spanOnTimer)
	lm["asim.next_upload_calls"] = float64(nu.calls)
	if nu.calls > 0 {
		lm["asim.next_upload_ok_frac"] = float64(nu.ok) / float64(nu.calls)
	}
	lm["asim.engine_s"] = sec("asim.Run")
	lm["asim.audit_s"] = sec("asim.RunAudit")
	lm["graph.build_s"] = sec("graph.RandomRegular")
	return lm, tr.spans, cpu, nil
}

// layerMetricNames lists the per-layer metrics in print order.
func layerMetricNames() []struct{ name, unit string } {
	return []struct{ name, unit string }{
		{"randomized.tick_s", "s"},
		{"randomized.ns_per_transfer", "ns"},
		{"randomized.new_s", "s"},
		{"schedule.tick_s", "s"},
		{"simulate.engine_s", "s"},
		{"simulate.ticks", "count"},
		{"simulate.audit_s", "s"},
		{"trace.append_ns_per_transfer", "ns"},
		{"trace.decode_ns_per_transfer", "ns"},
		{"trace.bytes_per_transfer", "B"},
		{"mechanism.min_credit_s", "s"},
		{"mechanism.verify_s", "s"},
		{"asim.protocol_s", "s"},
		{"asim.next_upload_calls", "count"},
		{"asim.next_upload_ok_frac", "fraction"},
		{"asim.engine_s", "s"},
		{"asim.audit_s", "s"},
		{"graph.build_s", "s"},
		{"runtime.setup_alloc_mib", "MiB"},
		{"runtime.sim_alloc_mib", "MiB"},
		{"runtime.audit_alloc_mib", "MiB"},
		{"runtime.gc_cpu_frac", "fraction"},
		{"host.steal_frac", "fraction"},
		{"bench.tracing_overhead_frac", "fraction"},
	}
}

// dominance reports each layer's share of the self time spent under
// the "run" span (the workload's run and checks, not its set-up or the
// trace probes), largest first, so the dominant layer reads off the
// first line.
func dominance(spans []span) []string {
	// Parents precede their children in spans, so one pass re-roots the
	// run span's subtree.
	idx := make([]int, len(spans))
	var sub []span
	for i := range spans {
		idx[i] = -1
		p := spans[i].Parent
		if p < 0 || (idx[p] < 0 && (spans[p].Name != "run" || spans[p].Parent >= 0)) {
			continue
		}
		s := spans[i]
		s.Parent = idx[p]
		idx[i] = len(sub)
		sub = append(sub, s)
	}
	if len(sub) == 0 {
		return nil
	}
	lt := layerTotals(sub)
	var total int64
	type share struct {
		name string
		self int64
	}
	var shares []share
	for name, t := range lt {
		total += t.self
		shares = append(shares, share{name, t.self})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].self != shares[j].self {
			return shares[i].self > shares[j].self
		}
		return shares[i].name < shares[j].name
	})
	out := []string{"self time by layer under the run span (last traced repetition):"}
	for _, s := range shares {
		out = append(out, fmt.Sprintf("  %-36s %9.4f s %6.1f%%", s.name, float64(s.self)/1e9, 100*float64(s.self)/float64(max(total, 1))))
	}
	return out
}

// spanDir is where the traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"

// writeSpans writes the last traced repetition's spans as JSON lines.
func (b *bench) writeSpans(spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed)))
	if err != nil {
		return err
	}
	return errors.Join(writeSpans(f, spans), f.Close())
}

// phaseAlloc accumulates heap allocation per phase of the traced run;
// a nil *phaseAlloc records nothing.
type phaseAlloc struct{ sim, audit float64 }

func (p *phaseAlloc) mark() float64 {
	if p == nil {
		return 0
	}
	return totalAllocMiB()
}

func (p *phaseAlloc) add(a0, a1, a2 float64) {
	if p == nil {
		return
	}
	p.sim += a1 - a0
	p.audit += a2 - a1
}
