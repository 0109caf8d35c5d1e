package asim

import (
	"path/filepath"
	"slices"
	"testing"

	"barterdist/internal/arrival"
	"barterdist/internal/bitset"
	"barterdist/internal/checkpoint"
	"barterdist/internal/fault"
	"barterdist/internal/xrand"
)

// TestPickTargetUniformOverQualifying pins the target law the present
// index must keep: on a canned state with a large id space (n = 4096),
// few present peers (40) and fewer qualifying targets (7), the
// complete-overlay pick is uniform over exactly the qualifying set.
// The non-qualifying present peers cover every way to fail: the
// server, peers holding everything u offers, and peers whose one
// download port is busy.
func TestPickTargetUniformOverQualifying(t *testing.T) {
	const n, k, u = 4096, 8, 100
	st := &State{n: n, k: k,
		have:     make([]*bitset.Set, n),
		inFlight: make([]map[int32]*event, n),
		alive:    make([]bool, n),
	}
	for v := range st.have {
		st.have[v] = bitset.New(k)
		st.inFlight[v] = map[int32]*event{}
	}
	for b := 0; b < k; b++ {
		st.have[0].Add(b)
	}
	st.have[u].Add(0)
	st.have[u].Add(1)
	var qualifying []int
	for i := 0; i < 40; i++ {
		v := i * 97 // 0 (the server), 97, ..., 3783; u = 100 is added below
		st.alive[v] = true
		switch {
		case v == 0:
		case i%5 == 1:
			qualifying = append(qualifying, v) // lacks both of u's blocks
		case i%5 == 2:
			st.have[v].Add(0) // needs block 1, whose port is taken
			st.inFlight[v][2] = &event{}
		default:
			st.have[v].Add(0) // holds all u offers
			st.have[v].Add(1)
		}
	}
	st.alive[u] = true
	st.rebuildPresent()
	if len(st.Present()) != 41 || len(qualifying) != 8 {
		t.Fatalf("canned state: %d present, %d qualifying", len(st.Present()), len(qualifying))
	}
	// Close the eighth: with its port busy it stays present but no
	// longer qualifies.
	st.inFlight[qualifying[7]][3] = &event{}
	qualifying = qualifying[:7]

	a := NewAsyncRandomized(nil, false, 1, 7)
	rng := xrand.New(11)
	const draws = 70_000
	counts := map[int]int{}
	for i := 0; i < draws; i++ {
		v := a.pickTarget(rng, u, st)
		if !slices.Contains(qualifying, v) {
			t.Fatalf("draw %d picked %d, not a qualifying target %v", i, v, qualifying)
		}
		counts[v]++
	}
	chi2 := 0.0
	exp := float64(draws) / float64(len(qualifying))
	for _, v := range qualifying {
		d := float64(counts[v]) - exp
		chi2 += d * d / exp
	}
	// χ²(6 df) exceeds 22.46 with probability 0.001.
	if chi2 > 22.46 {
		t.Fatalf("target counts %v are not uniform: χ² = %.2f over 6 df", counts, chi2)
	}
}

// presentChecker wraps the protocol under test and, every time the
// engine snapshots it (after every handled event at Checkpoint.Every =
// 1), checks the present index against the alive mask.
type presentChecker struct {
	*AsyncRandomized
	t      *testing.T
	st     *State
	checks int
}

func (p *presentChecker) NextUpload(u int, s *State) (Upload, bool) {
	p.st = s
	return p.AsyncRandomized.NextUpload(u, s)
}

func (p *presentChecker) RestoreState(dec *checkpoint.Decoder, s *State) error {
	p.st = s
	return p.AsyncRandomized.RestoreState(dec, s)
}

func (p *presentChecker) SnapshotState(enc *checkpoint.Encoder) error {
	if p.st != nil {
		var want []int32
		for v := 0; v < p.st.N(); v++ {
			if p.st.Alive(v) {
				want = append(want, int32(v))
			}
		}
		if got := p.st.Present(); !slices.Equal(got, want) {
			p.t.Fatalf("after handled event %d: Present() = %v, alive mask says %v", p.checks, got, want)
		}
		p.checks++
	}
	return p.AsyncRandomized.SnapshotState(enc)
}

// TestPresentTracksAliveMask: after every handled event of a churn
// run, an open run, and an open run resumed mid-crowd, Present() is
// exactly the ascending ids of the alive mask.
func TestPresentTracksAliveMask(t *testing.T) {
	churn := func() Config {
		return Config{Nodes: 40, Blocks: 12, DownloadPorts: 1,
			Fault: mustPlan(t, fault.Options{
				Seed: 77, CrashRate: 0.1, MaxCrashes: 6, RejoinDelay: 3,
				RejoinLosesBlocks: true, LossRate: 0.05, Victim: fault.VictimUniform,
			})}
	}
	open := func() Config {
		return Config{Nodes: 97, Blocks: 8, DownloadPorts: 1,
			Arrivals: openPlan(t, arrival.Options{Seed: 7, Rate: 0.8, EarlyExit: 0.2, Linger: 1.5})}
	}
	run := func(name string, cfg Config, snap *checkpoint.Snapshot) (*Result, int) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "run.ckpt")
		cfg.Checkpoint = &checkpoint.Policy{Path: path, Every: 1}
		p := &presentChecker{AsyncRandomized: NewAsyncRandomized(nil, true, 1, 42), t: t}
		var res *Result
		var err error
		if snap == nil {
			res, err = Run(cfg, p)
		} else {
			res, err = Resume(cfg, p, snap)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.checks < 100 {
			t.Fatalf("%s: only %d handled events checked", name, p.checks)
		}
		return res, p.checks
	}
	if res, _ := run("churn", churn(), nil); len(res.FaultLog) == 0 {
		t.Fatal("churn run applied no fault events")
	}
	_, events := run("open", open(), nil)

	// Resume from the one snapshot taken halfway through the crowd,
	// where arrivals and departures have moved the mask away from 0..n-1.
	cfg := open()
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	cfg.Checkpoint = &checkpoint.Policy{Path: path, Every: events/2 + 1}
	if _, err := Run(cfg, NewAsyncRandomized(nil, true, 1, 42)); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	run("resumed open", open(), snap)
}
