package mscn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"deepsketch/internal/featurize"
	"deepsketch/internal/nn"
)

// Engine is the packed ragged-batch inference path of the model: fused
// Linear+ReLU kernels over PackedBatch rows, segment average pooling instead
// of masked pooling, and sync.Pool-backed workspaces so a steady-state
// forward pass performs zero heap allocations. It shares the model's weights
// (read-only) with the tape-based training path and is safe for concurrent
// use — every concurrent caller gets its own scratch from the pool. Obtain
// one with Model.Engine (shared, cached) or NewEngine. The forward pass
// reads the f64 weights directly, so a ReadWeights (Refresh/Swap) is
// visible to the next prediction.
type Engine struct {
	m    *Model
	pool sync.Pool // *engineScratch
}

// engineScratch bundles the per-goroutine reusable state: a packed batch,
// the forward workspace, and small staging slices.
type engineScratch struct {
	pb  PackedBatch
	ws  nn.Workspace
	out []float64
	one [1]featurize.Encoded
}

// NewEngine builds an inference engine over the model's weights.
func NewEngine(m *Model) *Engine { return &Engine{m: m} }

func (e *Engine) scratch() *engineScratch {
	if s, ok := e.pool.Get().(*engineScratch); ok {
		return s
	}
	return &engineScratch{}
}

// Forward runs one packed forward pass, writing the normalized prediction
// for query i into out[i]. out must have length ≥ pb.B; ws provides the
// scratch and must not be shared with a concurrent pass. Steady-state (after
// the workspace has grown to the batch shape) the call performs zero heap
// allocations.
//
//deepsketch:zeroalloc
func (e *Engine) Forward(pb *PackedBatch, ws *nn.Workspace, out []float64) {
	m := e.m
	h := m.Cfg.HiddenUnits
	b := pb.B
	nt, nj, np := pb.Rows()
	ws.Reserve((2*(nt+nj+np) + 7*b) * h)

	th1 := ws.Alloc(nt, h)
	m.table1.ForwardFused(pb.TX, th1, true)
	th2 := ws.Alloc(nt, h)
	m.table2.ForwardFused(th1, th2, true)
	tPool := ws.Alloc(b, h)
	nn.SegmentAvgPool(th2, pb.TOff, tPool)

	jh1 := ws.Alloc(nj, h)
	m.join1.ForwardFused(pb.JX, jh1, true)
	jh2 := ws.Alloc(nj, h)
	m.join2.ForwardFused(jh1, jh2, true)
	jPool := ws.Alloc(b, h)
	nn.SegmentAvgPool(jh2, pb.JOff, jPool)

	ph1 := ws.Alloc(np, h)
	m.pred1.ForwardFused(pb.PX, ph1, true)
	ph2 := ws.Alloc(np, h)
	m.pred2.ForwardFused(ph1, ph2, true)
	pPool := ws.Alloc(b, h)
	nn.SegmentAvgPool(ph2, pb.POff, pPool)

	concat := ws.Alloc(b, 3*h)
	for bi := 0; bi < b; bi++ {
		dst := concat.Row(bi)
		copy(dst[:h], tPool.Row(bi))
		copy(dst[h:2*h], jPool.Row(bi))
		copy(dst[2*h:], pPool.Row(bi))
	}

	o1 := ws.Alloc(b, h)
	m.out1.ForwardFused(concat, o1, true)
	outM := nn.Matrix{Rows: b, Cols: 1, Data: out[:b]}
	m.out2.ForwardFused(o1, outM, false)
	nn.SigmoidInPlace(outM)
}

// Predict returns the normalized prediction for one featurized query using
// pooled scratch — the serving hot path for single ad-hoc estimates.
func (e *Engine) Predict(enc featurize.Encoded) (float64, error) {
	s := e.scratch()
	defer e.pool.Put(s)
	s.one[0] = enc
	err := s.pb.Build(s.one[:], e.m.TDim, e.m.JDim, e.m.PDim)
	// Don't let the pooled scratch pin the caller's feature slices.
	s.one[0] = featurize.Encoded{}
	if err != nil {
		return 0, err
	}
	if cap(s.out) < 1 {
		s.out = make([]float64, 1)
	}
	e.Forward(&s.pb, &s.ws, s.out[:1])
	return s.out[0], nil
}

// PredictAllInto writes normalized predictions for encs into out (equal
// lengths required). Shapes may be arbitrarily mixed — packing makes a
// ragged batch cost exactly its valid rows, so no shape grouping happens.
// Work proceeds in model-batch-size chunks; with GOMAXPROCS > 1 and several
// chunks, chunks fan out across cores, each on its own pooled scratch. ctx
// is checked between chunks.
func (e *Engine) PredictAllInto(ctx context.Context, encs []featurize.Encoded, out []float64) error {
	if len(out) != len(encs) {
		return fmt.Errorf("mscn: %d outputs for %d queries", len(out), len(encs))
	}
	if len(encs) == 0 {
		return nil
	}
	return e.forEachChunk(ctx, len(encs), func(lo, hi int) error {
		s := e.scratch()
		defer e.pool.Put(s)
		if err := s.pb.Build(encs[lo:hi], e.m.TDim, e.m.JDim, e.m.PDim); err != nil {
			return err
		}
		e.Forward(&s.pb, &s.ws, out[lo:hi])
		return nil
	})
}

// forEachChunk runs fn over [0,n) in chunks that fan out across cores. The
// chunk size is the model batch size, shrunk on multicore machines so even
// a single coalesced flush splits across every core instead of serializing
// on one (on GOMAXPROCS=1 the single full-size chunk keeps the zero-
// goroutine fast path). ctx is checked before each chunk; the first error
// wins and aborts the rest.
func (e *Engine) forEachChunk(ctx context.Context, n int, fn func(lo, hi int) error) error {
	bs := e.m.Cfg.BatchSize
	if bs <= 0 {
		bs = 64
	}
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		if per := (n + procs - 1) / procs; per < bs {
			bs = per
		}
	}
	chunks := (n + bs - 1) / bs
	runChunk := func(ci int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := ci * bs
		hi := lo + bs
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for ci := 0; ci < chunks; ci++ {
			if err := runChunk(ci); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		runErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= chunks {
					return
				}
				if err := runChunk(ci); err != nil {
					mu.Lock()
					if runErr == nil {
						runErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return runErr
}

// PredictAll returns normalized predictions for many featurized queries.
//
//deepsketch:ctxorigin compatibility wrapper for ctx-less callers; cancellable path is PredictAllInto
func (e *Engine) PredictAll(encs []featurize.Encoded) ([]float64, error) {
	out := make([]float64, len(encs))
	if err := e.PredictAllInto(context.Background(), encs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// QuerySource feeds queries straight into packed feature rows, bypassing
// any intermediate per-query materialization — the serving batch path.
// RowCounts must report exactly the rows EncodeTo will consume.
// Implementations must be safe for concurrent calls on distinct indices:
// on multicore machines PredictSourceInto fans chunks out across
// goroutines, each driving its own index range — per-call mutable state
// shared between calls would race.
type QuerySource interface {
	// RowCounts returns the table/join/predicate row counts of query i.
	RowCounts(i int) (t, j, p int)
	// EncodeTo writes query i's feature rows via the next functions, each
	// of which returns the next zeroed destination row for its set.
	EncodeTo(i int, nextT, nextJ, nextP func() []float64) error
}

// PredictSourceInto writes normalized predictions for the source's n
// queries into out (len n). Feature rows are encoded directly into the
// pooled PackedBatch (PackedBatch.BuildFrom) — no per-query vectors, no
// copies — then predicted exactly like PredictAllInto (same chunking, same
// cross-core fan-out, same ctx checks between chunks).
func (e *Engine) PredictSourceInto(ctx context.Context, src QuerySource, n int, out []float64) error {
	if len(out) != n {
		return fmt.Errorf("mscn: %d outputs for %d queries", len(out), n)
	}
	if n == 0 {
		return nil
	}
	return e.forEachChunk(ctx, n, func(lo, hi int) error {
		s := e.scratch()
		defer e.pool.Put(s)
		if err := s.pb.BuildFrom(src, lo, hi, e.m.TDim, e.m.JDim, e.m.PDim); err != nil {
			return err
		}
		e.Forward(&s.pb, &s.ws, out[lo:hi])
		return nil
	})
}
