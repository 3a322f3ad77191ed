package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"deepsketch/internal/core"
	"deepsketch/internal/db"
	"deepsketch/internal/serve"
	"deepsketch/internal/sqlparse"
)

// session sends one workload's operations to one sketch of a running
// daemon and remembers what it was told, for the output checks.
type session struct {
	in *inputs
	d  *daemon
	id int

	mu sync.Mutex
	// served is the first estimate served for each query.
	served map[int32]float64
	// admitted lists the actuals the daemon acknowledged as admitted.
	admitted []op
	// overlays[q] has bit k set when an estimate response for q carried
	// overlay field k (see overlayFields).
	overlays map[int32]uint8
	// stats counts what the daemon's responses said, since newSession or
	// the last takeStats.
	stats serveStats
	// problems are wrong outputs: an estimate that changed between
	// requests, a malformed answer.
	problems []string
}

func newSession(in *inputs, d *daemon, id int) *session {
	return &session{in: in, d: d, id: id, served: map[int32]float64{}, overlays: map[int32]uint8{}}
}

// Overlay bits: the estimate handler's exact count (the response's
// "true"), HyPer ("hyper") and PostgreSQL ("postgresql") overlays.
const (
	overlayTrue uint8 = 1 << iota
	overlayHyper
	overlayPostgres
)

// serveStats are counts taken from the daemon's responses.
type serveStats struct {
	estimates, cacheHits int
	// overlays[k] counts the estimate responses that carried overlay k.
	overlays [3]int
	// admitted counts the admitted actuals; matched those the daemon's
	// drift monitor matched with a pending observation.
	admitted, matched int
}

// takeStats returns the counts since the last call and starts afresh.
func (s *session) takeStats() serveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	s.stats = serveStats{}
	return st
}

type estimateReq struct {
	SketchID int    `json:"sketch_id"`
	SQL      string `json:"sql"`
}

// estimateResp holds the sketch's own answer and whether the cache served
// it. Of the exact, HyPer and PostgreSQL overlay fields only the presence
// is noted; their values are never read.
type estimateResp struct {
	DeepSketch *float64        `json:"deep_sketch"`
	CacheHit   bool            `json:"cache_hit"`
	True       json.RawMessage `json:"true"`
	Hyper      json.RawMessage `json:"hyper"`
	Postgres   json.RawMessage `json:"postgresql"`
}

func (r *estimateResp) overlays() uint8 {
	var m uint8
	for k, f := range []json.RawMessage{r.True, r.Hyper, r.Postgres} {
		if f != nil {
			m |= 1 << k
		}
	}
	return m
}

type actualsReq struct {
	SQL    string  `json:"sql"`
	Actual float64 `json:"actual"`
	Client string  `json:"client"`
}

type actualsResp struct {
	Admitted bool   `json:"admitted"`
	Decision string `json:"decision"`
	Matched  bool   `json:"matched"`
}

func clientID(c int16) string { return "bench-client-" + strconv.Itoa(int(c)) }

// do sends one operation. A transport error, an unexpected status or an
// actual the daemon did not admit is returned as the operation's failure.
func (s *session) do(ctx context.Context, o op) error {
	switch o.kind {
	case opEstimate:
		var resp estimateResp
		status, err := s.d.call(ctx, http.MethodPost, "/api/estimate", estimateReq{SketchID: s.id, SQL: s.in.sqls[o.q]}, &resp)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("estimate: status %d", status)
		}
		s.recordServed(o.q, &resp)
		return nil
	case opActual:
		t := s.in.truth[o.q]
		if t < 0 {
			return fmt.Errorf("no truth computed for query %d", o.q)
		}
		var resp actualsResp
		status, err := s.d.call(ctx, http.MethodPost, "/api/sketches/"+strconv.Itoa(s.id)+"/actuals",
			actualsReq{SQL: s.in.sqls[o.q], Actual: float64(t), Client: clientID(o.client)}, &resp)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("actuals: status %d", status)
		}
		if !resp.Admitted {
			return fmt.Errorf("actual not admitted (%s)", resp.Decision)
		}
		s.mu.Lock()
		s.admitted = append(s.admitted, o)
		s.stats.admitted++
		if resp.Matched {
			s.stats.matched++
		}
		s.mu.Unlock()
		return nil
	}
	return fmt.Errorf("unknown operation kind %d", o.kind)
}

// recordServed counts the response, keeps the first answer for q and
// flags any later answer that differs from it.
func (s *session) recordServed(q int32, resp *estimateResp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.estimates++
	if resp.CacheHit {
		s.stats.cacheHits++
	}
	m := resp.overlays()
	for k := range s.stats.overlays {
		if m&(1<<k) != 0 {
			s.stats.overlays[k]++
		}
	}
	s.overlays[q] |= m
	v := resp.DeepSketch
	if v == nil {
		s.problems = append(s.problems, "estimate response without deep_sketch")
		return
	}
	if prev, ok := s.served[q]; !ok {
		s.served[q] = *v
	} else if prev != *v {
		s.problems = append(s.problems, fmt.Sprintf("query %d served %v, earlier %v", q, *v, prev))
	}
}

// parseAll parses the SQL the daemon received, against the bench's copy of
// the dataset, exactly as the daemon parses it.
func parseAll(d *db.DB, sqls []string) ([]db.Query, error) {
	out := make([]db.Query, len(sqls))
	for i, sql := range sqls {
		res, err := sqlparse.Parse(d, sql)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", sql, err)
		}
		out[i] = res.Query
	}
	return out, nil
}

// relTol is the relative tolerance between a served estimate and the
// downloaded sketch's own answer.
const relTol = 1e-9

// checkServed loads the sketch file the daemon served from and compares
// every distinct served estimate with that sketch's Cardinality, clamped
// to [1, MaxCardinality] as the serving stack clamps it. It returns the
// loaded sketch.
func checkServed(d *db.DB, blob []byte, parsed []db.Query, served map[int32]float64) (*core.Sketch, []string, error) {
	sk, err := core.Load(bytes.NewReader(blob))
	if err != nil {
		return nil, nil, fmt.Errorf("loading the downloaded sketch: %w", err)
	}
	maxCard := serve.MaxCardinality(d)
	var problems []string
	for q, got := range served {
		want, err := sk.Cardinality(parsed[q])
		if err != nil {
			return nil, nil, fmt.Errorf("downloaded sketch on query %d: %w", q, err)
		}
		want = clampCard(want, maxCard)
		if math.Abs(got-want) > relTol*math.Max(math.Abs(want), 1) {
			problems = append(problems, fmt.Sprintf("query %d: served %v, downloaded sketch gives %v", q, got, want))
		}
	}
	return sk, problems, nil
}

func clampCard(c, maxCard float64) float64 {
	if c < 1 {
		c = 1
	}
	if maxCard > 0 && c > maxCard {
		c = maxCard
	}
	return c
}
