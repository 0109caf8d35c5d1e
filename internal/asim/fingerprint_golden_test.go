package asim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"barterdist/internal/adversary"
	"barterdist/internal/arrival"
	"barterdist/internal/fault"
	"barterdist/internal/graph"
	"barterdist/internal/xrand"
)

// goldenAsimFingerprints pins the sha256 of the event engine's full
// run fingerprint (trace, fault log, completions, open verdict) for a
// spread of seeded scenarios, so the draw sequence is stable *across*
// builds, not only run to run within one.
//
// The first three entries predate the present-peer index (DESIGN.md
// §15.6) and must never move: on those runs no node is dead while a
// target is drawn, so the candidate array the index yields is exactly
// the old 0..n-1 scan's. The last two are the index's sanctioned
// re-baseline: complete-overlay runs with a fault or arrival plan,
// where dead ids no longer consume draws. Regenerate only for a
// sanctioned re-baseline:
//
//	CDGOLD_UPDATE=1 go test ./internal/asim -run TestAsimFingerprintGolden -v
var goldenAsimFingerprints = map[string]string{
	"closed+complete":  "d9c5293d0e3c85265913a51b6ed3dc51d591b86028149b38aecb3f86ea1628a5",
	"closed+adversary": "8af4b8200d534c52c84bb9b05f9c7ceccc4e9a1f1cc36c0340a2d242abec298b",
	"overlay+fault":    "9645554633fd65b929d575b73b451469b6b89a039fb4eefd478bc71c907963c2",
	"complete+churn":   "4c87d356a5a5ef9c325aa14fe47898cfbf9e6acdfcff686d9560247faadc8de0",
	"complete+open":    "b78e9475bf5cb8da1010793d1a9404a51547bd6341bc97fb4db61a946300291c",
}

// goldenAsimScenario builds a fresh (single-use plans) configuration
// and protocol for the named scenario.
func goldenAsimScenario(t *testing.T, name string) (Config, Protocol) {
	t.Helper()
	churn := fault.Options{
		Seed: 77, CrashRate: 0.08, MaxCrashes: 5, RejoinDelay: 4,
		RejoinLosesBlocks: true, LossRate: 0.05, Victim: fault.VictimUniform,
	}
	switch name {
	case "closed+complete":
		return Config{Nodes: 40, Blocks: 16, DownloadPorts: 1, RecordTrace: true},
			NewAsyncRandomized(nil, true, 1, 42)
	case "closed+adversary":
		cfg := Config{Nodes: 40, Blocks: 16, DownloadPorts: 1, RecordTrace: true}
		cfg.Adversary = mustAdvPlan(t, cfg.Nodes, adversary.Options{
			Seed: 99, FreeRiderFrac: 0.15, ThrottlerFrac: 0.1,
			FalseAdvertiserFrac: 0.1, CorrupterFrac: 0.1, DefectorFrac: 0.05,
		})
		return cfg, NewAsyncRandomized(nil, false, 1, 17)
	case "overlay+fault":
		g, err := graph.RandomRegular(36, 6, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Nodes: 36, Blocks: 12, DownloadPorts: 1, RecordTrace: true,
			Fault: mustPlan(t, churn)}
		return cfg, NewAsyncRandomized(g, true, 1, 13)
	case "complete+churn":
		cfg := Config{Nodes: 40, Blocks: 16, DownloadPorts: 1, RecordTrace: true,
			Fault: mustPlan(t, churn)}
		return cfg, NewAsyncRandomized(nil, true, 1, 29)
	case "complete+open":
		cfg := Config{Nodes: 97, Blocks: 8, DownloadPorts: 1, RecordTrace: true,
			Arrivals: openPlan(t, arrival.Options{
				Seed: 7, Rate: 0.8, EarlyExit: 0.2, Linger: 1.5,
			})}
		return cfg, NewAsyncRandomized(nil, true, 1, 42)
	}
	t.Fatalf("unknown golden scenario %q", name)
	return Config{}, nil
}

func TestAsimFingerprintGolden(t *testing.T) {
	update := os.Getenv("CDGOLD_UPDATE") != ""
	for name, want := range goldenAsimFingerprints {
		t.Run(name, func(t *testing.T) {
			cfg, p := goldenAsimScenario(t, name)
			res, err := Run(cfg, p)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := RunAudit(cfg, res); err != nil {
				t.Fatalf("RunAudit: %v", err)
			}
			sum := sha256.Sum256([]byte(asimOpenFingerprint(res)))
			got := hex.EncodeToString(sum[:])
			if update || want == "" {
				t.Logf("goldenAsimFingerprints[%q] = %q", name, got)
				if want == "" {
					t.Skip("golden hash not recorded yet")
				}
			}
			if got != want {
				t.Fatalf("asim fingerprint drifted:\n got %s\nwant %s\n"+
					"(representation changes must not move the draw sequence; "+
					"re-baseline only with CDGOLD_UPDATE=1 and a sanctioned reason)", got, want)
			}
		})
	}
}
