package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// benchSpecPath is the benchmark definition, relative to the repository
// root the benchmark runs from.
const benchSpecPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// steadyMain runs two sets of runs of one workload, each run a fresh
// process with its own seed, and reports per end-to-end metric each
// set's median and quartiles, the spread (q3 - q1) / median, and
// whether the two sets agree within BENCHMARK.json's bound.
func steadyMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	runs := fs.Int("runs", 10, "runs per set")
	seconds := fs.Float64("seconds", 0, "--seconds of each run (default: BENCHMARK.json's run_seconds)")
	seed0 := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if findWorkload(*name) == nil || *runs < 2 {
		return fmt.Errorf("need a known --workload and --runs >= 2")
	}
	raw, err := os.ReadFile(benchSpecPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchSpecPath, err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2]map[string][]float64
	for s := range sets {
		sets[s] = make(map[string][]float64)
		for i := 0; i < *runs; i++ {
			seed := *seed0 + uint64(i)
			res, err := runOnce(self, *name, seed, *seconds)
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", s+1, seed, err)
			}
			for m, v := range res.Metrics {
				sets[s][m] = append(sets[s][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d seed %d done\n", s+1, seed)
		}
	}
	fmt.Fprintf(out, "workload=%s runs=%d seconds=%g seeds=%d..%d\n", *name, *runs, *seconds, *seed0, *seed0+uint64(*runs-1))
	fmt.Fprintf(out, "%-20s %-5s %12s %12s %12s %8s %12s %12s %12s %8s %7s %6s %s\n",
		"metric", "bound", "q1(1)", "med(1)", "q3(1)", "iqr(1)", "q1(2)", "med(2)", "q3(2)", "iqr(2)", "drift", "agree", "")
	for _, m := range spec.EndToEnd {
		a, b := sets[0][m.Name], sets[1][m.Name]
		if len(a) < 2 || len(b) < 2 {
			return fmt.Errorf("metric %s missing from the runs' output", m.Name)
		}
		a1, am, a3 := quartiles(a)
		b1, bm, b3 := quartiles(b)
		ia, ib := spread(a1, am, a3), spread(b1, bm, b3)
		drift := (bm - am) / am
		if m.Better == "higher" {
			drift = -drift
		}
		// setup_s is judged on drift alone; every other metric also on
		// its spread.
		ok := drift <= m.Bound && (m.Name == "setup_s" || (ia <= m.Bound && ib <= m.Bound))
		note := ""
		if m.Name != "setup_s" && math.Max(ia, ib) > m.Bound/3 {
			note = "spread above a third of the bound"
		}
		fmt.Fprintf(out, "%-20s %-5.3g %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g %12.6g %8.4f %7.4f %6v %s\n",
			m.Name, m.Bound, a1, am, a3, ia, b1, bm, b3, ib, drift, ok, note)
	}
	return nil
}

func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// runOnce runs the benchmark in a child process and parses the JSON
// object on its last line of output.
func runOnce(self, name string, seed uint64, seconds float64) (*runResult, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	if runErr != nil || !res.Correct {
		return nil, fmt.Errorf("run failed its checks (%v)", runErr)
	}
	return &res, nil
}
