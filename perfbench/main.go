// Command perfbench is the repository's benchmark. It drives the real
// cmd/deepsketchd binary over loopback HTTP, from one process and with at
// most as many connections as the machine has CPUs, and reports what a
// client of the daemon pays: estimate and actuals latency under an open
// loop, daemon CPU per operation, sketch build and refresh CPU, served
// q-error, set-up time and peak memory. A traced run (-trace 1) also
// measures tails, closed-loop capacity and wall-clock build times, replays
// the same inputs in-process through each layer's public functions, and
// reports per-layer numbers instead.
//
//	bash perfbench/run.sh --workload estimate-cold --seed 1 --seconds 15 --trace 0
//
// The workloads are estimate-cold, feedback-hot and sketch-build; see
// README.md in this directory for what each one stresses, the metric
// table, and which per-layer metric should move which end-to-end one.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 2600, "failed": 0, "metrics": {"estimate_p50_ms": {"value": 1.93, "unit": "ms"}, ...}}
//
// The run exits non-zero when an output check fails: a served estimate
// that differs from the downloaded sketch's own answer, an unexpected
// HTTP status, or (feedback-hot) an admitted actual missing from the WAL.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"deepsketch/internal/metrics"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string
	work     string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDeadline bounds one run; the benchmark contract allows 180 s.
const runDeadline = 170 * time.Second

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: estimate-cold, feedback-hot or sketch-build")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced in-process replay")
	flag.StringVar(&o.daemon, "daemon", "", "path of the deepsketchd binary")
	flag.StringVar(&o.work, "work", "", "directory for daemon logs, WALs and span files")
	flag.Parse()
	o.trace = trace == 1
	if o.daemon == "" || o.work == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		logf("need -daemon, -work, -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	res, err := run(ctx, o)
	cancel()
	stop()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		os.Exit(1)
	}
}

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []string{
	"setup_s", "estimate_p50_ms", "actuals_p50_ms",
	"build_imdb_cpu_s", "refresh_cpu_s", "qerror_median", "qerror_p95", "peak_rss_mb",
}

// daemonExtras are end-to-end measurements whose run-to-run spread on a
// small shared host is wider than any regression bound the benchmark may
// set: open-loop tails, closed-loop capacity, wall-clock build times and
// daemon CPU time per operation. Traced runs report them per layer, as
// "deepsketchd." + name.
var daemonExtras = map[string]string{
	"estimate_p99_ms": "ms", "actuals_p99_ms": "ms", "capacity_rps": "1/s",
	"build_imdb_s": "s", "refresh_s": "s", "build_tpch_s": "s",
	"cpu_us_per_op": "us",
}

// perLayer are the metrics a --trace 1 run reports, on every workload.
var perLayer = []string{
	"sqlparse.parse_us", "sample.bitmaps_us", "featurize.encode_us",
	"featurize.allocs_per_query", "mscn.forward_us", "core.cardinality_us",
	"core.cardinality_allocs", "drift.observe_us", "lifecycle.view_us",
	"serve.cache_hit_ratio", "serve.cache_self_us",
	"serve.coalescer_batch_mean", "serve.coalescer_self_us", "db.count_us",
	"db.count_calls_per_request", "drift.truth_calls_per_request",
	"estimator.hyper_us", "estimator.postgres_us", "wal.admit_us",
	"wal.admitted_share", "drift.resolve_us", "drift.matched_share",
	"wal.append_us", "wal.sync_us",
	"wal.syncs_per_append", "wal.bytes_per_record", "deepsketchd.residual_us",
	"deepsketchd.estimate_p99_ms", "deepsketchd.actuals_p99_ms",
	"deepsketchd.capacity_rps", "deepsketchd.build_imdb_s",
	"deepsketchd.build_tpch_s", "deepsketchd.refresh_s",
	"deepsketchd.cpu_us_per_op",
	"deepsketchd.failed_share", "deepsketchd.stage_ms.generate",
	"deepsketchd.stage_ms.execute", "deepsketchd.stage_ms.featurize",
	"deepsketchd.stage_ms.train", "workload.generate_ms", "workload.label_ms",
	"sample.materialize_ms", "featurize.encode_ms", "mscn.epoch_ms",
	"mscn.train_ms", "core.refresh_ms", "datagen.imdb_ms", "datagen.tpch_ms",
	"estimator.baselines_ms", "core.sketch_bytes", "loadgen.lateness_p99_ms",
	"trace.overhead_pct",
}

// runner accumulates one run's measurements and checks.
type runner struct {
	o        options
	conns    int
	dir      string
	res      *result
	all      map[string]metric
	problems []string
}

func (r *runner) set(name string, v float64, unit string) {
	r.all[name] = metric{Value: v, Unit: unit}
}

// count adds outcomes to attempted/failed.
func (r *runner) count(outs []outcome) {
	for _, o := range outs {
		r.res.Attempted++
		if o.err != nil {
			r.res.Failed++
			if r.res.Failed <= 5 {
				logf("operation failed: %v", o.err)
			}
		}
	}
}

func (r *runner) problem(ps ...string) {
	for _, p := range ps {
		if len(r.problems) < 5 {
			logf("wrong output: %s", p)
		}
		r.problems = append(r.problems, p)
	}
}

func run(ctx context.Context, o options) (*result, error) {
	dir := filepath.Join(o.work, o.workload+"-"+strconv.FormatInt(o.seed, 10)+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &runner{o: o, conns: runtime.NumCPU(), dir: dir, res: &result{}, all: map[string]metric{}}
	var err error
	switch o.workload {
	case estimateCold, feedbackHot:
		err = r.serving(ctx)
	case sketchBuild:
		err = r.sketchBuild(ctx)
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", o.workload, estimateCold, feedbackHot, sketchBuild)
	}
	if err != nil {
		return nil, err
	}
	if !o.trace {
		r.res.Metrics = map[string]metric{}
		for _, name := range endToEnd {
			m, ok := r.all[name]
			if !ok {
				return nil, fmt.Errorf("metric %s was not measured", name)
			}
			r.res.Metrics[name] = m
		}
	}
	r.res.Correct = len(r.problems) == 0 && r.res.Failed == 0
	if r.res.Attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if r.res.Correct {
		// Keep the span file; drop daemon logs and WALs of a clean run.
		if err := cleanWork(dir); err != nil {
			logf("cleaning %s: %v", dir, err)
		}
	}
	return r.res, nil
}

// cleanWork removes everything in dir except span files.
func cleanWork(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".jsonl" {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// daemonFlags are the flags of the k-th launch: the defaults, except
// feedback-hot's WAL and truthless drift monitor.
func (r *runner) daemonFlags(k int) []string {
	if r.o.workload != feedbackHot {
		return nil
	}
	return []string{"-wal", r.walDir(k), "-drift-truth=false"}
}

func (r *runner) walDir(k int) string { return filepath.Join(r.dir, "wal-"+strconv.Itoa(k)) }

// setupLaunches is how many times a run starts the daemon to time its
// set-up; the last launch serves the workload.
const setupLaunches = 5

// setup starts the daemon setupLaunches times (once when tracing),
// timing each launch until the first request is answered, and reports
// the median as setup_s. It returns the last, running daemon and the
// index of its launch.
func (r *runner) setup(ctx context.Context) (*daemon, int, error) {
	n := setupLaunches
	if r.o.trace {
		n = 1
	}
	var times []float64
	for k := 0; k < n; k++ {
		start := time.Now()
		d, err := startDaemon(r.o.daemon, r.daemonFlags(k), filepath.Join(r.dir, "deepsketchd-"+strconv.Itoa(k)+".log"), r.conns)
		if err != nil {
			return nil, 0, err
		}
		if err := d.waitUp(ctx, time.Minute); err != nil {
			if serr := d.stop(); serr != nil {
				logf("stopping deepsketchd: %v", serr)
			}
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if k == n-1 {
			r.set("setup_s", median(times), "s")
			return d, k, nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, fmt.Errorf("deepsketchd launch %d did not shut down cleanly: %w", k, err)
		}
	}
	panic("unreachable")
}

// latencyLimit is the capacity phase's per-operation latency limit.
const latencyLimit = 50 * time.Millisecond

// splitLatencies separates open-loop outcomes by operation kind, in ms.
func splitLatencies(ops []op, outs []outcome) (est, act, late []float64) {
	for i, o := range outs {
		ms := float64(o.latency) / float64(time.Millisecond)
		if ops[i].kind == opActual {
			act = append(act, ms)
		} else {
			est = append(est, ms)
		}
		late = append(late, float64(o.lateness)/float64(time.Millisecond))
	}
	return est, act, late
}

// setLatency reports a median and a tail percentile of xs.
func (r *runner) setLatency(prefix string, xs []float64) {
	p50, _ := tailQuantile(xs, 0.5)
	p99, q := tailQuantile(xs, 0.99)
	r.set(prefix+"_p50_ms", p50, "ms")
	r.set(prefix+"_p99_ms", p99, "ms")
	logf("%s: %d samples, p50 %.3f ms, p%.1f %.3f ms", prefix, len(xs), p50, q*100, p99)
}

// qerrors grades the served estimates of the graded queries against the
// benchmark's own exact counts.
func qerrors(in *inputs, served map[int32]float64) []float64 {
	var out []float64
	for _, q := range in.grade {
		if v, ok := served[int32(q)]; ok {
			out = append(out, metrics.QError(v, float64(in.truth[q])))
		}
	}
	return out
}

// gradePass estimates the graded queries the measured phases did not
// serve, untimed.
func (r *runner) gradePass(ctx context.Context, s *session) {
	var todo []int32
	for _, q := range s.in.grade {
		if _, ok := s.served[int32(q)]; !ok {
			todo = append(todo, int32(q))
		}
	}
	r.count(parallel(ctx, len(todo), r.conns, func(ctx context.Context, i int) error {
		return s.do(ctx, op{kind: opEstimate, q: todo[i]})
	}))
}

func (r *runner) setQError(xs []float64) {
	med, _ := tailQuantile(xs, 0.5)
	p95, q := tailQuantile(xs, 0.95)
	r.set("qerror_median", med, "ratio")
	r.set("qerror_p95", p95, "ratio")
	logf("q-error over %d distinct queries: median %.3f, p%.1f %.3f", len(xs), med, q*100, p95)
}

// estimateQueries lists the distinct queries the ops estimate, in order.
func estimateQueries(ops []op) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, o := range ops {
		if o.kind == opEstimate && !seen[o.q] {
			seen[o.q] = true
			out = append(out, o.q)
		}
	}
	return out
}
