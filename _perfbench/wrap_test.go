package main

import (
	"fmt"
	"testing"

	"barterdist/internal/asim"
	"barterdist/internal/checkpoint"
	"barterdist/internal/randomized"
	"barterdist/internal/schedule"
	"barterdist/internal/simulate"
)

// Fake protocols covering every combination of the optional interfaces
// the asim engine type-asserts. Each fake counts the calls it receives.

type calls map[string]int

type fakeProto struct{ c calls }

func (f fakeProto) NextUpload(int, *asim.State) (asim.Upload, bool) {
	f.c["NextUpload"]++
	return asim.Upload{To: 1, Block: 2}, true
}
func (f fakeProto) Wakeups() []float64                   { f.c["Wakeups"]++; return []float64{3} }
func (f fakeProto) OnTimer(int, *asim.State)             { f.c["OnTimer"]++ }
func (f fakeProto) Neighbors(int) []int32                { f.c["Neighbors"]++; return nil }
func (f fakeProto) OnDeliver(int, int, int, *asim.State) { f.c["OnDeliver"]++ }

type fakeFault struct{ c calls }

func (f fakeFault) OnCrash(int, *asim.State)                { f.c["OnCrash"]++ }
func (f fakeFault) OnRejoin(int, bool, *asim.State)         { f.c["OnRejoin"]++ }
func (f fakeFault) OnLoss(int, int, int, bool, *asim.State) { f.c["OnLoss"]++ }

type fakeAdv struct{ c calls }

func (f fakeAdv) OnAdversaryDrop(int, int, int, bool, *asim.State) { f.c["OnAdversaryDrop"]++ }

type fakeCkpt struct{ c calls }

func (f fakeCkpt) SnapshotState(*checkpoint.Encoder) error { f.c["SnapshotState"]++; return nil }
func (f fakeCkpt) RestoreState(*checkpoint.Decoder, *asim.State) error {
	f.c["RestoreState"]++
	return nil
}

// fakeProtocol returns a protocol implementing exactly the optional
// interfaces selected by the three flags.
func fakeProtocol(c calls, fault, adv, ckpt bool) asim.Protocol {
	p, f, a, k := fakeProto{c}, fakeFault{c}, fakeAdv{c}, fakeCkpt{c}
	switch {
	case fault && adv && ckpt:
		return struct {
			fakeProto
			fakeFault
			fakeAdv
			fakeCkpt
		}{p, f, a, k}
	case fault && adv:
		return struct {
			fakeProto
			fakeFault
			fakeAdv
		}{p, f, a}
	case fault && ckpt:
		return struct {
			fakeProto
			fakeFault
			fakeCkpt
		}{p, f, k}
	case adv && ckpt:
		return struct {
			fakeProto
			fakeAdv
			fakeCkpt
		}{p, a, k}
	case fault:
		return struct {
			fakeProto
			fakeFault
		}{p, f}
	case adv:
		return struct {
			fakeProto
			fakeAdv
		}{p, a}
	case ckpt:
		return struct {
			fakeProto
			fakeCkpt
		}{p, k}
	default:
		return p
	}
}

type optional struct{ fault, adv, ckpt bool }

func optionalOf(p asim.Protocol) optional {
	_, f := p.(asim.FaultAware)
	_, a := p.(asim.AdversaryAware)
	_, c := p.(asim.CheckpointableProtocol)
	return optional{f, a, c}
}

// TestWrapProtocolKeepsOptionalInterfaces: for every combination, the
// wrapper satisfies exactly the optional interfaces of the wrapped
// value and forwards every call to it, timed or not.
func TestWrapProtocolKeepsOptionalInterfaces(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		want := optional{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		t.Run(fmt.Sprintf("%+v", want), func(t *testing.T) {
			c := calls{}
			inner := fakeProtocol(c, want.fault, want.adv, want.ckpt)
			if got := optionalOf(inner); got != want {
				t.Fatalf("fake implements %+v, want %+v", got, want)
			}
			tr := newTracer()
			w := wrapProtocol(inner, tr)
			if got := optionalOf(w); got != want {
				t.Fatalf("wrapper implements %+v, inner %+v", got, want)
			}
			if up, ok := w.NextUpload(0, nil); !ok || up != (asim.Upload{To: 1, Block: 2}) {
				t.Errorf("NextUpload = %v, %v; want the inner answer", up, ok)
			}
			w.OnDeliver(0, 1, 2, nil)
			w.OnTimer(0, nil)
			if ws := w.Wakeups(); len(ws) != 1 || ws[0] != 3 {
				t.Errorf("Wakeups = %v, want the inner periods", ws)
			}
			w.Neighbors(0)
			wantCalls := calls{"NextUpload": 1, "OnDeliver": 1, "OnTimer": 1, "Wakeups": 1, "Neighbors": 1}
			if f, ok := w.(asim.FaultAware); ok {
				f.OnCrash(1, nil)
				f.OnRejoin(1, true, nil)
				f.OnLoss(0, 1, 2, false, nil)
				wantCalls["OnCrash"], wantCalls["OnRejoin"], wantCalls["OnLoss"] = 1, 1, 1
			}
			if a, ok := w.(asim.AdversaryAware); ok {
				a.OnAdversaryDrop(0, 1, 2, true, nil)
				wantCalls["OnAdversaryDrop"] = 1
			}
			if k, ok := w.(asim.CheckpointableProtocol); ok {
				_ = k.SnapshotState(nil)
				_ = k.RestoreState(nil, nil)
				wantCalls["SnapshotState"], wantCalls["RestoreState"] = 1, 1
			}
			if fmt.Sprint(c) != fmt.Sprint(wantCalls) {
				t.Errorf("inner saw calls %v, want %v", c, wantCalls)
			}
			lt := layerTotals(tr.spans)
			for _, name := range []string{spanNextUpload, spanOnDeliver, spanOnTimer} {
				if lt[name].calls != 1 {
					t.Errorf("aggregate span %s has %d calls, want 1", name, lt[name].calls)
				}
			}
			if lt[spanNextUpload].ok != 1 {
				t.Errorf("NextUpload useful answers = %d, want 1", lt[spanNextUpload].ok)
			}
		})
	}
}

// TestWrapProtocolReal: the real asynchronous protocol implements all
// three optional interfaces, and so does its wrapper.
func TestWrapProtocolReal(t *testing.T) {
	inner := asim.NewAsyncRandomized(nil, true, 1, 1)
	want := optional{true, true, true}
	if got := optionalOf(inner); got != want {
		t.Fatalf("AsyncRandomized implements %+v", got)
	}
	if got := optionalOf(wrapProtocol(inner, newTracer())); got != want {
		t.Fatalf("wrapper implements %+v, want %+v", got, want)
	}
}

type fakeScheduler struct{ ticks *int }

func (f fakeScheduler) Tick(_ int, _ *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
	*f.ticks++
	return append(dst, simulate.Transfer{From: 0, To: 1, Block: 0}), nil
}

// TestWrapSchedulerKeepsCheckpointable: the scheduler wrapper is
// checkpointable exactly when the wrapped scheduler is, and records one
// span per Tick.
func TestWrapSchedulerKeepsCheckpointable(t *testing.T) {
	rs, err := randomized.New(randomized.Options{DownloadCap: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := schedule.NewBinomialPipeline(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ticks := 0
	cases := []struct {
		name  string
		inner simulate.Scheduler
	}{
		{"randomized", rs},
		{"binomial-pipeline", bp},
		{"plain", fakeScheduler{&ticks}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, want := c.inner.(simulate.CheckpointableScheduler)
			tr := newTracer()
			w := wrapScheduler(c.inner, tr, "sched.Tick")
			if _, got := w.(simulate.CheckpointableScheduler); got != want {
				t.Fatalf("wrapper checkpointable = %v, inner %v", got, want)
			}
		})
	}
	tr := newTracer()
	w := wrapScheduler(fakeScheduler{&ticks}, tr, "sched.Tick")
	for i := 1; i <= 3; i++ {
		out, err := w.Tick(i, nil, nil)
		if err != nil || len(out) != 1 {
			t.Fatalf("Tick = %v, %v", out, err)
		}
	}
	if ticks != 3 || len(tr.spans) != 3 || tr.spans[2].Name != "sched.Tick" {
		t.Fatalf("inner ticks %d, spans %+v; want 3 Tick calls and 3 spans", ticks, tr.spans)
	}
}

// TestWrappedRunsMatchUnwrapped: through the wrappers, both engines
// produce the same result as with the bare scheduler or protocol.
func TestWrappedRunsMatchUnwrapped(t *testing.T) {
	for _, name := range []string{"credit-starved", "async-open"} {
		w := *findWorkload(name)
		w.n, w.k = 300, 8
		var fps [2]string
		for i, tr := range []*tracer{nil, newTracer()} {
			p, err := w.setup(&w, 7, tr)
			if err != nil {
				t.Fatal(err)
			}
			o, err := w.run(p, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range o.checks {
				if c.err != nil {
					t.Errorf("%s: check %s: %v", name, c.name, c.err)
				}
			}
			fps[i] = o.fingerprint()
		}
		if fps[0] != fps[1] {
			t.Errorf("%s: traced %s, untraced %s", name, fps[1], fps[0])
		}
	}
}
