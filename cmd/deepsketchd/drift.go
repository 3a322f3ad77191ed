package main

import (
	"context"
	"fmt"
	"log"

	"deepsketch"
)

// The drift wiring: what the automatic drift controller trains on, when it
// may start, and how its transitions land on the sketch entries and the
// store.

// walDeltaMin is the fewest distinct logged actuals worth fine-tuning on;
// below it the synthetic generator produces a better-covered workload.
const walDeltaMin = 32

// newController wires the dataset's drift controller to the daemon.
func (s *server) newController(ds *dataset, cfg deepsketch.DriftControllerConfig) *deepsketch.DriftController {
	if ds.pinned != nil {
		cfg.Pinned = ds.pinned
		cfg.PinnedMaxRegress = s.opts.pinnedMaxRegress
	}
	cfg.Workload = func(_ context.Context, sketchName string) ([]deepsketch.LabeledQuery, error) {
		return s.deltaWorkload(ds, sketchName)
	}
	cfg.OnEvent = func(ev deepsketch.DriftEvent) { s.onDriftEvent(ds, ev) }
	cfg.SkipTrigger = func(sketchName string) bool { return s.skipTrigger(ds, sketchName) }
	return deepsketch.NewDriftController(ds.reg, ds.drift, cfg)
}

// skipTrigger declines a drift trigger. A trigger that fires while an
// operator's refresh/canary fine-tune is still training (entry
// "refreshing", no canary installed yet) must not start a second
// concurrent retrain of the same sketch. Without the exact executor, a
// trigger also waits until the WAL holds enough logged actuals to
// fine-tune on: checked here, on the goroutine that resolved the
// triggering actual, so the refresh never races the feedback it exists to
// learn from.
func (s *server) skipTrigger(ds *dataset, sketchName string) bool {
	if !s.opts.driftTruth && ds.walActualCount(sketchName) < walDeltaMin {
		return true
	}
	e := s.entryByName(ds.name, sketchName)
	if e == nil {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return e.Status != "ready"
}

// deltaWorkload assembles the controller's fine-tune input for automatic
// refreshes. When the observation WAL holds enough logged actuals for the
// sketch, the delta workload IS the observed traffic — the most recent
// distinct query signatures with their actual cardinalities, no synthetic
// generation and no exact executor in the loop. Otherwise, if the exact
// executor is configured (-drift-truth), it falls back to a synthetic
// delta; without it the refresh fails rather than label with the executor
// after all.
func (s *server) deltaWorkload(ds *dataset, sketchName string) ([]deepsketch.LabeledQuery, error) {
	live, _, err := ds.reg.Live(sketchName)
	if err != nil {
		return nil, err
	}
	if lw := ds.walWorkload(sketchName, s.opts.walDelta); len(lw) >= walDeltaMin {
		s.walWorkloads.Add(1)
		log.Printf("deepsketchd: refresh of %q fine-tuning on %d WAL-logged actuals", sketchName, len(lw))
		return lw, nil
	}
	if !s.opts.driftTruth {
		return nil, fmt.Errorf("too few WAL-logged actuals for %q to fine-tune on (want %d) and no exact executor", sketchName, walDeltaMin)
	}
	return ds.syntheticDelta(live, ds.historySeed(sketchName), 1000, 0)
}

// historySeed is the default delta-workload seed: derived from the
// monotone history length, not the live version number — after a rollback
// the live version repeats, and the seed must not, or a refresh would
// regenerate the exact delta workload that produced the rolled-back model.
// Consecutive refreshes thus see fresh queries.
func (ds *dataset) historySeed(sketchName string) int64 {
	histLen := 0
	if vs, err := ds.reg.Versions(sketchName); err == nil {
		histLen = len(vs)
	}
	return int64(histLen + 1)
}

// syntheticDelta generates a fresh delta workload over the sketch's tables
// and labels it with the exact executor.
func (ds *dataset) syntheticDelta(sk *deepsketch.Sketch, seed int64, count, workers int) ([]deepsketch.LabeledQuery, error) {
	qs, err := deepsketch.GenerateWorkload(ds.db, deepsketch.GenConfig{
		Seed: seed, Count: count, Tables: sk.Cfg.Tables,
		MaxJoins: sk.Cfg.MaxJoins, MaxPreds: sk.Cfg.MaxPreds, Dedup: true,
	})
	if err != nil {
		return nil, err
	}
	return deepsketch.LabelWorkload(ds.db, qs, workers)
}

// onDriftEvent mirrors automatic drift-cycle transitions onto the sketch
// entry and the persistent store, so the admin API and a restarted daemon
// both see what the controller did.
func (s *server) onDriftEvent(ds *dataset, ev deepsketch.DriftEvent) {
	e := s.entryByName(ds.name, ev.Name)
	if e == nil {
		return
	}
	switch ev.Kind {
	case "refresh_started":
		log.Printf("deepsketchd: drift trigger on %q (%s): refreshing", ev.Name, ev.Reason)
		s.mu.Lock()
		if e.Status == "ready" {
			e.Status = "refreshing"
		}
		s.mu.Unlock()
	case "canary_started":
		log.Printf("deepsketchd: drift refresh of %q canarying as v%d", ev.Name, ev.Version)
		e.adminMu.Lock()
		if sk, err := ds.reg.Sketch(ev.Name, ev.Version); err == nil {
			s.mu.Lock()
			e.Status = "canarying"
			s.mu.Unlock()
			s.persistVersion(e, sk, ev.Version)
		}
		e.adminMu.Unlock()
	case "promoted":
		log.Printf("deepsketchd: canary v%d of %q promoted", ev.Version, ev.Name)
		e.adminMu.Lock()
		if err := s.landPromoted(e, ev.Version); err != nil {
			log.Printf("deepsketchd: landing promoted v%d of %q: %v", ev.Version, ev.Name, err)
		}
		e.adminMu.Unlock()
	case "aborted":
		log.Printf("deepsketchd: canary v%d of %q aborted (comparative q-error gate)", ev.Version, ev.Name)
		e.adminMu.Lock()
		if err := s.landLive(e, fmt.Sprintf("canary v%d aborted by the q-error gate", ev.Version)); err != nil {
			log.Printf("deepsketchd: reinstalling the live version of %q: %v", ev.Name, err)
		}
		e.adminMu.Unlock()
	case "pinned_rejected", "error":
		msg := "drift refresh rejected: candidate regressed on the pinned benchmark"
		switch {
		case ev.Kind == "error":
			log.Printf("deepsketchd: drift cycle for %q failed: %v", ev.Name, ev.Err)
			msg = "drift refresh failed: " + ev.Err.Error()
		case ev.Pinned != nil:
			log.Printf("deepsketchd: drift refresh of %q rejected by the pinned benchmark: candidate median %.3g vs live %.3g (tolerance %.2fx), p95 %.3g vs %.3g",
				ev.Name, ev.Pinned.Candidate.Median, ev.Pinned.Live.Median, ev.Pinned.MaxRegress,
				ev.Pinned.Candidate.P95, ev.Pinned.Live.P95)
		default:
			log.Printf("deepsketchd: drift refresh of %q rejected by the pinned benchmark", ev.Name)
		}
		s.mu.Lock()
		if e.Status == "refreshing" {
			e.Status = "ready"
			e.Error = msg
		}
		s.mu.Unlock()
	}
}

// entryByName finds the entry serving (dataset, name), or nil. A failed
// build never reached the registry, and register lets a later entry reuse
// its name, so failed entries are skipped.
func (s *server) entryByName(dataset, name string) *sketchEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.sketches {
		if e.Dataset == dataset && e.Name == name && e.Status != "failed" {
			return e
		}
	}
	return nil
}
