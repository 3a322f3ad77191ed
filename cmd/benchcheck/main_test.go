package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	base := map[string]float64{"estimate_latency_us": 20, "train_epoch_ms": 10}
	keys := []string{"estimate_latency_us", "train_epoch_ms"}

	// Within threshold either way: no findings.
	regs, imps := compare(base, map[string]float64{"estimate_latency_us": 24, "train_epoch_ms": 8}, keys, 0.25)
	if len(regs) != 0 || len(imps) != 0 {
		t.Errorf("within threshold: regs=%v imps=%v", regs, imps)
	}

	// >25% slower on one metric: exactly that metric regresses.
	regs, _ = compare(base, map[string]float64{"estimate_latency_us": 26, "train_epoch_ms": 10}, keys, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "estimate_latency_us") {
		t.Errorf("regression not flagged: %v", regs)
	}

	// >25% faster: reported as an improvement, not a regression.
	regs, imps = compare(base, map[string]float64{"estimate_latency_us": 20, "train_epoch_ms": 7}, keys, 0.25)
	if len(regs) != 0 || len(imps) != 1 || !strings.Contains(imps[0], "train_epoch_ms") {
		t.Errorf("improvement not flagged: regs=%v imps=%v", regs, imps)
	}

	// Metric absent from either side is a finding, not a silent pass.
	regs, _ = compare(base, map[string]float64{"estimate_latency_us": 20}, keys, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Errorf("missing metric not flagged: %v", regs)
	}
	regs, _ = compare(map[string]float64{}, map[string]float64{"estimate_latency_us": 20}, keys[:1], 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "baseline") {
		t.Errorf("missing baseline not flagged: %v", regs)
	}

	// A zero baseline cannot be ratioed against.
	regs, _ = compare(map[string]float64{"estimate_latency_us": 0}, map[string]float64{"estimate_latency_us": 20}, keys[:1], 0.25)
	if len(regs) != 1 {
		t.Errorf("zero baseline not flagged: %v", regs)
	}
}
