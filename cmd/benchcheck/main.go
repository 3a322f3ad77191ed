// Command benchcheck compares a freshly emitted perf-trajectory artifact
// (the BENCH_deepsketch.json written by TestPerfTrajectory) against a
// checked-in baseline and flags estimate-latency regressions.
//
//	go run ./cmd/benchcheck -baseline BENCH_baseline.json -current BENCH_deepsketch.json
//
// A metric regresses when the current value exceeds the baseline by more
// than -max-regress (default 0.25, i.e. 25%). By default regressions are
// reported as warnings and the exit code stays 0 — wall-clock latency is
// only comparable between runs on the same runner class, and CI's hosted
// runners are not the class the baseline was recorded on. Pass -strict to
// exit non-zero on regression (the mode for a dedicated, stable perf
// runner). Improvements beyond the threshold are reported too, as a nudge
// to refresh the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

// artifact mirrors the perf-trajectory schema (deepsketch-perf-v1).
type artifact struct {
	Schema  string             `json:"schema"`
	Go      string             `json:"go"`
	Metrics map[string]float64 `json:"metrics"`
}

func loadArtifact(path string) (artifact, error) {
	var a artifact
	blob, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(blob, &a); err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	if len(a.Metrics) == 0 {
		return a, fmt.Errorf("%s: no metrics", path)
	}
	return a, nil
}

// compare checks each named lower-is-better metric and returns regression
// messages (current worse than baseline by more than maxRegress) and
// improvement notes (current better by more than maxRegress).
func compare(base, cur map[string]float64, keys []string, maxRegress float64) (regressions, improvements []string) {
	for _, k := range keys {
		b, okB := base[k]
		c, okC := cur[k]
		if !okB {
			regressions = append(regressions, fmt.Sprintf("%s: missing from baseline", k))
			continue
		}
		if !okC {
			regressions = append(regressions, fmt.Sprintf("%s: missing from current artifact", k))
			continue
		}
		if b <= 0 {
			regressions = append(regressions, fmt.Sprintf("%s: non-positive baseline %g", k, b))
			continue
		}
		switch ratio := c / b; {
		case ratio > 1+maxRegress:
			regressions = append(regressions, fmt.Sprintf("%s: %.2f vs baseline %.2f (+%.0f%%, threshold +%.0f%%)",
				k, c, b, (ratio-1)*100, maxRegress*100))
		case ratio < 1-maxRegress:
			improvements = append(improvements, fmt.Sprintf("%s: %.2f vs baseline %.2f (%.0f%% faster — consider refreshing the baseline)",
				k, c, b, (1-ratio)*100))
		}
	}
	return regressions, improvements
}

func main() {
	log.SetFlags(0)
	baseline := flag.String("baseline", "BENCH_baseline.json", "checked-in baseline artifact")
	current := flag.String("current", "BENCH_deepsketch.json", "freshly emitted artifact")
	maxRegress := flag.Float64("max-regress", 0.25, "tolerated fractional latency increase before a metric counts as regressed")
	metrics := flag.String("metrics", "estimate_latency_us", "comma-separated lower-is-better metrics to compare")
	strict := flag.Bool("strict", false, "exit non-zero on regression (for same-runner-class comparisons)")
	flag.Parse()

	base, err := loadArtifact(*baseline)
	if err != nil {
		log.Fatalf("benchcheck: %v", err)
	}
	cur, err := loadArtifact(*current)
	if err != nil {
		log.Fatalf("benchcheck: %v", err)
	}
	keys := strings.Split(*metrics, ",")
	for _, k := range keys {
		if b, ok := base.Metrics[k]; ok {
			if c, ok := cur.Metrics[k]; ok {
				log.Printf("benchcheck: %s: current %.2f, baseline %.2f (%+.1f%%)", k, c, b, (c/b-1)*100)
			}
		}
	}
	regs, imps := compare(base.Metrics, cur.Metrics, keys, *maxRegress)
	for _, msg := range imps {
		log.Printf("benchcheck: improvement: %s", msg)
	}
	if len(regs) == 0 {
		log.Printf("benchcheck: no estimate-latency regression beyond %.0f%%", *maxRegress*100)
		return
	}
	for _, msg := range regs {
		// ::warning:: renders as an annotation on GitHub-hosted runners and
		// is plain text everywhere else.
		fmt.Printf("::warning::benchcheck regression: %s\n", msg)
	}
	if *strict {
		os.Exit(1)
	}
	log.Printf("benchcheck: %d regression(s) — advisory only (baseline runner class differs; pass -strict on a dedicated perf runner)", len(regs))
}
