package mscn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"deepsketch/internal/datagen"
	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
	"deepsketch/internal/trainmon"
)

// Example is one training example: a featurized query and its true
// cardinality.
type Example struct {
	Enc  featurize.Encoded
	Card int64
}

// EpochStats captures one epoch of training for monitoring and the epoch-
// convergence experiment (E7).
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	ValMeanQ  float64
	ValMedQ   float64
	Duration  time.Duration
}

// Train fits the model on examples using the encoder's label normalization
// with default TrainOptions (data-parallel across GOMAXPROCS workers).
// A validation split (Cfg.ValFrac, taken deterministically from the shuffled
// tail) is evaluated after every epoch; per-epoch metrics stream to mon and
// are returned. The encoder must already have its label norm fitted
// (Encoder.FitLabels) on the training cardinalities.
func (m *Model) Train(examples []Example, norm nn.LabelNorm, mon *trainmon.Monitor) ([]EpochStats, error) {
	return m.TrainWithOptions(examples, norm, mon, TrainOptions{})
}

// TrainWithOptions is Train with explicit execution options. Training runs
// on the packed representation: each minibatch is sharded contiguously
// across opts.Parallelism workers, every worker packs and backpropagates
// its shard with private scratch and gradient buffers, gradients reduce in
// fixed worker order, and one Adam step applies per minibatch — so a fixed
// (seed, parallelism) pair reproduces bitwise-identical weights, and any
// parallelism matches the serial path up to float summation order.
//
// opts.Resume warm-starts the optimizer from an exported state; opts.Epochs
// overrides the configured epoch budget; opts.StopAtValQ stops early once
// the validation mean q-error is good enough. After training the final
// optimizer state is captured on the model (OptState) for the next resume.
// With KeepBest, the restored weights are the best epoch's but the captured
// optimizer state is the final epoch's — a warm start continues from the
// end of the run, which is the standard fine-tuning compromise.
//
//deepsketch:deterministic
func (m *Model) TrainWithOptions(examples []Example, norm nn.LabelNorm, mon *trainmon.Monitor, opts TrainOptions) ([]EpochStats, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("mscn: no training examples")
	}
	rng := trainRand(m.Cfg.Seed)

	// Deterministic shuffle, then split off validation tail.
	perm := shuffle(rng, len(examples))
	shuffled := make([]Example, len(examples))
	for i, p := range perm {
		shuffled[i] = examples[p]
	}
	nVal := int(float64(len(shuffled)) * m.Cfg.ValFrac)
	if nVal >= len(shuffled) {
		nVal = len(shuffled) - 1
	}
	train := shuffled[:len(shuffled)-nVal]
	val := shuffled[len(shuffled)-nVal:]

	ys := make([]float64, len(train))
	for i, ex := range train {
		ys[i] = norm.Normalize(ex.Card)
	}

	opt := nn.NewAdam(m.Cfg.LearningRate, m.Cfg.ClipNorm)
	params := m.Params()
	if opts.Resume != nil {
		if err := opt.RestoreState(params, opts.Resume); err != nil {
			return nil, err
		}
	}
	epochs := opts.epochs(m.Cfg)
	tr := newPackedTrainer(m, params, opts.workers())
	mon.TrainStart(tr.parallelism(), len(train), len(val))
	stats := make([]EpochStats, 0, epochs)

	bestVal := math.NaN()
	var bestWeights [][]float64
	snapshotFrom := func(src []*nn.Param) {
		if bestWeights == nil {
			bestWeights = make([][]float64, len(params))
			for i, p := range params {
				bestWeights[i] = make([]float64, len(p.Data))
			}
		}
		for i, p := range src {
			copy(bestWeights[i], p.Data)
		}
	}

	// Pipelined validation: val(e) runs in a goroutine against a boundary
	// weight snapshot (valModel) while epoch e+1 trains, and is joined
	// before the next boundary is staged. KeepBest and StopAtValQ consume
	// exactly the boundary values the serial schedule would, and an early
	// stop rolls back the one speculative epoch — weights AND optimizer
	// state — so outcomes are bitwise-identical to PipelineVal=false.
	pipeline := opts.PipelineVal && len(val) > 0
	type valResult struct {
		qs  []float64
		err error
	}
	var (
		valCh        chan valResult
		valModel     *Model       // reused boundary-snapshot model (always f64)
		valIdx       int          // stats index of the epoch being validated
		valOptState  *nn.OptState // Adam state at the validated boundary (StopAtValQ only)
		stoppedEarly bool
	)
	launchVal := func() {
		if valModel == nil {
			valModel = New(m.Cfg, m.TDim, m.JDim, m.PDim)
		}
		for i, p := range valModel.Params() {
			copy(p.Data, params[i].Data)
		}
		if opts.StopAtValQ > 0 {
			valOptState = opt.ExportState(params)
		}
		valIdx = len(stats) - 1
		valCh = make(chan valResult, 1)
		go func() {
			qs, err := valModel.evalQErrors(val, norm)
			valCh <- valResult{qs, err}
		}()
	}
	// joinVal waits for the in-flight validation (if any), fills its
	// epoch's stats, reports to the monitor, applies KeepBest, and reports
	// whether StopAtValQ fired for that epoch.
	joinVal := func() (bool, error) {
		if valCh == nil {
			return false, nil
		}
		r := <-valCh
		valCh = nil
		if r.err != nil {
			return false, r.err
		}
		st := &stats[valIdx]
		st.ValMeanQ = mean(r.qs)
		st.ValMedQ = median(r.qs)
		mon.Epoch(st.Epoch, st.TrainLoss, st.ValMeanQ, st.ValMedQ)
		if m.Cfg.KeepBest && qBetter(st.ValMeanQ, bestVal) {
			bestVal = st.ValMeanQ
			snapshotFrom(valModel.Params())
		}
		return opts.StopAtValQ > 0 && !math.IsNaN(st.ValMeanQ) && st.ValMeanQ <= opts.StopAtValQ, nil
	}

	// The trainer state (packed batches, workspaces, gradient buffers) and
	// the staging slices live across every step of every epoch: steady-state
	// training allocates nothing per step beyond what shape growth and, at
	// P>1, the per-step fork/join demand.
	var (
		encs    []featurize.Encoded
		targets []float64
	)
	for epoch := 1; epoch <= epochs; epoch++ {
		//deepsketch:ignore determinism epoch wall-clock telemetry; never feeds weights
		start := time.Now()
		order := shuffle(rng, len(train))
		var lossSum float64
		var batches int
		for lo := 0; lo < len(order); lo += m.Cfg.BatchSize {
			hi := lo + m.Cfg.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			encs = encs[:0]
			targets = targets[:0]
			for _, idx := range order[lo:hi] {
				encs = append(encs, train[idx].Enc)
				targets = append(targets, ys[idx])
			}
			loss, err := tr.step(encs, targets, norm)
			if err != nil {
				return stats, err
			}
			opt.Step(params)
			lossSum += loss
			batches++
		}
		//deepsketch:ignore determinism epoch wall-clock telemetry; never feeds weights
		st := EpochStats{Epoch: epoch, TrainLoss: lossSum / float64(batches), Duration: time.Since(start)}
		if pipeline {
			// Duration covers the training loop only; validation overlaps
			// the next epoch. Val metrics land when val(epoch) is joined.
			stats = append(stats, st)
			stop, err := joinVal() // val(epoch-1), overlapped with this epoch
			if err != nil {
				return stats, err
			}
			if stop {
				// The serial schedule ends at the validated epoch: drop the
				// speculative epoch just trained and roll back to the
				// boundary weights validation saw.
				stats = stats[:valIdx+1]
				vp := valModel.Params()
				for i, p := range params {
					copy(p.Data, vp[i].Data)
				}
				stoppedEarly = true
				break
			}
			launchVal()
			continue
		}
		if len(val) > 0 {
			qs, err := m.evalQErrors(val, norm)
			if err != nil {
				return stats, err
			}
			st.ValMeanQ = mean(qs)
			st.ValMedQ = median(qs)
		}
		stats = append(stats, st)
		mon.Epoch(epoch, st.TrainLoss, st.ValMeanQ, st.ValMedQ)
		if m.Cfg.KeepBest && len(val) > 0 && qBetter(st.ValMeanQ, bestVal) {
			bestVal = st.ValMeanQ
			snapshotFrom(params)
		}
		if opts.StopAtValQ > 0 && len(val) > 0 && !math.IsNaN(st.ValMeanQ) && st.ValMeanQ <= opts.StopAtValQ {
			break
		}
	}
	if pipeline && !stoppedEarly {
		// Join the final epoch's validation. A StopAtValQ hit here needs no
		// rollback — the serial schedule would end after this epoch too.
		if _, err := joinVal(); err != nil {
			return stats, err
		}
	}
	if m.Cfg.KeepBest && bestWeights != nil {
		for i, p := range params {
			copy(p.Data, bestWeights[i])
		}
	}
	if stoppedEarly && valOptState != nil {
		// The optimizer ran one epoch past the stop point; the exported
		// state must be the boundary's, as the serial schedule would leave.
		m.optState = valOptState
	} else {
		m.optState = opt.ExportState(params)
	}
	return stats, nil
}

// qBetter reports whether cur is a strictly better validation mean q-error
// than best. NaN is strictly worse than any real value: a NaN cur never
// wins (so KeepBest cannot snapshot diverged weights), and a NaN best —
// the before-first-snapshot sentinel — loses to any real cur.
func qBetter(cur, best float64) bool {
	if math.IsNaN(cur) {
		return false
	}
	return math.IsNaN(best) || cur < best
}

// evalQErrors predicts the validation examples and returns their q-errors.
//
//deepsketch:ctxorigin synchronous validation pass inside the training loop; cancellation arrives via the trainer
func (m *Model) evalQErrors(val []Example, norm nn.LabelNorm) ([]float64, error) {
	encs := make([]featurize.Encoded, len(val))
	for i, ex := range val {
		encs[i] = ex.Enc
	}
	preds := make([]float64, len(encs))
	if err := m.Engine().PredictAllInto(context.Background(), encs, preds); err != nil {
		return nil, err
	}
	qs := make([]float64, len(val))
	for i, ex := range val {
		qs[i] = norm.QErrorOf(preds[i], norm.Normalize(ex.Card))
	}
	return qs, nil
}

// Predict returns the normalized prediction for one featurized query via
// the packed inference engine.
func (m *Model) Predict(enc featurize.Encoded) (float64, error) {
	return m.Engine().Predict(enc)
}

// PredictAll returns normalized predictions for many featurized queries via
// the packed inference engine (chunked into inference batches; mixed shapes
// carry no padding).
func (m *Model) PredictAll(encs []featurize.Encoded) ([]float64, error) {
	return m.Engine().PredictAll(encs)
}

// trainRand derives the training RNG (shuffles, validation split) from the
// model seed; exposed within the package so tests can reproduce the split.
func trainRand(seed int64) *rand.Rand { return datagen.NewRand(seed ^ 0x7ea1) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
