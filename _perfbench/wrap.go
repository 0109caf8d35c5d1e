package main

import (
	"barterdist/internal/asim"
	"barterdist/internal/checkpoint"
	"barterdist/internal/simulate"
)

// The engines type-assert their scheduler or protocol for optional
// interfaces (checkpointing, fault and adversary callbacks). A
// forwarding wrapper must therefore implement exactly the optional
// interfaces of the value it wraps: one more would make an engine take
// a path the bare value does not support, one fewer would hide a
// capability. wrapScheduler and wrapProtocol pick the wrapper type
// that matches the wrapped value's method set.

// tracedScheduler records each Tick as a span.
type tracedScheduler struct {
	inner simulate.Scheduler
	tr    *tracer
	name  string
}

func (s *tracedScheduler) Tick(t int, st *simulate.State, dst []simulate.Transfer) ([]simulate.Transfer, error) {
	id := s.tr.begin(s.name)
	out, err := s.inner.Tick(t, st, dst)
	s.tr.end(id)
	return out, err
}

type ckptSchedulerFwd struct {
	c simulate.CheckpointableScheduler
}

func (f ckptSchedulerFwd) SnapshotState(enc *checkpoint.Encoder) error {
	return f.c.SnapshotState(enc)
}

func (f ckptSchedulerFwd) RestoreState(dec *checkpoint.Decoder, st *simulate.State) error {
	return f.c.RestoreState(dec, st)
}

// wrapScheduler returns inner with every Tick recorded as a span named
// name.
func wrapScheduler(inner simulate.Scheduler, tr *tracer, name string) simulate.Scheduler {
	base := &tracedScheduler{inner: inner, tr: tr, name: name}
	if c, ok := inner.(simulate.CheckpointableScheduler); ok {
		return struct {
			*tracedScheduler
			ckptSchedulerFwd
		}{base, ckptSchedulerFwd{c}}
	}
	return base
}

// tracedProtocol folds the per-event callbacks NextUpload, OnDeliver
// and OnTimer into aggregate spans.
type tracedProtocol struct {
	inner asim.Protocol
	tr    *tracer
}

// Aggregate span names of the protocol callbacks.
const (
	spanNextUpload = "asim.NextUpload"
	spanOnDeliver  = "asim.OnDeliver"
	spanOnTimer    = "asim.OnTimer"
)

func (p *tracedProtocol) NextUpload(u int, s *asim.State) (asim.Upload, bool) {
	start := p.tr.call()
	up, ok := p.inner.NextUpload(u, s)
	p.tr.record(spanNextUpload, start, ok)
	return up, ok
}

func (p *tracedProtocol) Wakeups() []float64 { return p.inner.Wakeups() }

func (p *tracedProtocol) OnTimer(idx int, s *asim.State) {
	start := p.tr.call()
	p.inner.OnTimer(idx, s)
	p.tr.record(spanOnTimer, start, true)
}

func (p *tracedProtocol) Neighbors(v int) []int32 { return p.inner.Neighbors(v) }

func (p *tracedProtocol) OnDeliver(from, to, block int, s *asim.State) {
	start := p.tr.call()
	p.inner.OnDeliver(from, to, block, s)
	p.tr.record(spanOnDeliver, start, true)
}

type faultFwd struct{ f asim.FaultAware }

func (w faultFwd) OnCrash(v int, s *asim.State)              { w.f.OnCrash(v, s) }
func (w faultFwd) OnRejoin(v int, wiped bool, s *asim.State) { w.f.OnRejoin(v, wiped, s) }
func (w faultFwd) OnLoss(from, to, block int, corrupt bool, s *asim.State) {
	w.f.OnLoss(from, to, block, corrupt, s)
}

type adversaryFwd struct{ a asim.AdversaryAware }

func (w adversaryFwd) OnAdversaryDrop(from, to, block int, corrupt bool, s *asim.State) {
	w.a.OnAdversaryDrop(from, to, block, corrupt, s)
}

type ckptProtocolFwd struct{ c asim.CheckpointableProtocol }

func (w ckptProtocolFwd) SnapshotState(enc *checkpoint.Encoder) error {
	return w.c.SnapshotState(enc)
}

func (w ckptProtocolFwd) RestoreState(dec *checkpoint.Decoder, s *asim.State) error {
	return w.c.RestoreState(dec, s)
}

// wrapProtocol returns inner with its per-event callbacks aggregated
// into spans.
func wrapProtocol(inner asim.Protocol, tr *tracer) asim.Protocol {
	p := &tracedProtocol{inner: inner, tr: tr}
	f, isF := inner.(asim.FaultAware)
	a, isA := inner.(asim.AdversaryAware)
	c, isC := inner.(asim.CheckpointableProtocol)
	ff, af, cf := faultFwd{f}, adversaryFwd{a}, ckptProtocolFwd{c}
	switch {
	case isF && isA && isC:
		return struct {
			*tracedProtocol
			faultFwd
			adversaryFwd
			ckptProtocolFwd
		}{p, ff, af, cf}
	case isF && isA:
		return struct {
			*tracedProtocol
			faultFwd
			adversaryFwd
		}{p, ff, af}
	case isF && isC:
		return struct {
			*tracedProtocol
			faultFwd
			ckptProtocolFwd
		}{p, ff, cf}
	case isA && isC:
		return struct {
			*tracedProtocol
			adversaryFwd
			ckptProtocolFwd
		}{p, af, cf}
	case isF:
		return struct {
			*tracedProtocol
			faultFwd
		}{p, ff}
	case isA:
		return struct {
			*tracedProtocol
			adversaryFwd
		}{p, af}
	case isC:
		return struct {
			*tracedProtocol
			ckptProtocolFwd
		}{p, cf}
	default:
		return p
	}
}
