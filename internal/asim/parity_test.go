package asim

import (
	"math"
	"os"
	"testing"

	"barterdist/internal/arrival"
	"barterdist/internal/fault"
)

// parityReps is the seed count behind every parity mean.
const parityReps = 24

// parityBaseline pins the mean and 95% CI half-width each parity
// metric had before the present-peer index (DESIGN.md §15.6), when
// dead ids still consumed target draws. Measured with this file's own
// configurations over parityReps seeds.
var parityBaseline = map[string][2]float64{
	"open λ=0.5 sojourn":      {16.9984, 0.0049},
	"open λ=2 sojourn":        {17.2328, 0.0045},
	"complete+churn makespan": {101.1265, 6.0406},
}

// parityMetric runs one parity configuration for seed rep and returns
// its metric: mean sojourn for open runs, completion time for churn.
func parityMetric(t *testing.T, name string, rep int) float64 {
	t.Helper()
	switch name {
	case "open λ=0.5 sojourn", "open λ=2 sojourn":
		rate := 0.5
		if name == "open λ=2 sojourn" {
			rate = 2
		}
		const capacity, k = 2049, 16
		cfg := Config{
			Nodes: capacity, Blocks: k, DownloadPorts: 1,
			MaxTime:  float64(capacity-1)/rate + 60*k + 2000,
			Arrivals: openPlan(t, arrival.Options{Seed: uint64(33000 + rep), Rate: rate}),
		}
		res, err := Run(cfg, NewAsyncRandomized(nil, true, 1, uint64(31000+rep)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Open.Verdict != arrival.VerdictDrained {
			t.Fatalf("%s seed %d: verdict %v/%v, want Drained", name, rep, res.Open.Verdict, res.Open.Reason)
		}
		return res.Open.SojournMean
	case "complete+churn makespan":
		cfg := Config{Nodes: 256, Blocks: 32, DownloadPorts: 1,
			Fault: mustPlan(t, fault.Options{
				Seed: uint64(35000 + rep), CrashRate: 0.2, MaxCrashes: 12, RejoinDelay: 6,
				RejoinLosesBlocks: true, LossRate: 0.02, Victim: fault.VictimUniform,
			})}
		res, err := Run(cfg, NewAsyncRandomized(nil, true, 1, uint64(37000+rep)))
		if err != nil {
			t.Fatal(err)
		}
		return res.CompletionTime
	}
	t.Fatalf("unknown parity metric %q", name)
	return 0
}

// meanCI95 returns the sample mean and the half-width of its 95%
// confidence interval (Student t, 23 degrees of freedom for 24 seeds).
func meanCI95(xs []float64) (mean, half float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	const t23 = 2.069
	return mean, t23 * sd / math.Sqrt(float64(len(xs)))
}

// TestPresentIndexParity is the distribution-parity evidence for the
// present-peer index's draw re-baseline: for each re-baselined run
// class, the mean over parityReps seeds must agree with the pinned
// pre-index mean within the 95% CI of their difference. Minutes long,
// so it runs only on request:
//
//	BARTERDIST_PARITY=1 go test ./internal/asim -run TestPresentIndexParity -v -timeout 30m
func TestPresentIndexParity(t *testing.T) {
	if os.Getenv("BARTERDIST_PARITY") == "" {
		t.Skip("set BARTERDIST_PARITY=1 to run the ≥20-seed parity sweep")
	}
	for _, name := range []string{"open λ=0.5 sojourn", "open λ=2 sojourn", "complete+churn makespan"} {
		t.Run(name, func(t *testing.T) {
			xs := make([]float64, parityReps)
			for rep := range xs {
				xs[rep] = parityMetric(t, name, rep)
			}
			mean, half := meanCI95(xs)
			t.Logf("%s: mean %.4f ± %.4f (95%% CI, %d seeds)", name, mean, half, parityReps)
			base := parityBaseline[name]
			if base[1] == 0 {
				t.Skip("no baseline pinned")
			}
			if diff, tol := math.Abs(mean-base[0]), math.Hypot(half, base[1]); diff > tol {
				t.Fatalf("%s: mean %.4f vs pre-index %.4f: difference %.4f exceeds the 95%% CI %.4f",
					name, mean, base[0], diff, tol)
			}
			t.Logf("%s: pre-index mean %.4f ± %.4f", name, base[0], base[1])
		})
	}
}
