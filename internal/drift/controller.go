package drift

import (
	"context"
	"fmt"
	"sync"
	"time"

	"deepsketch/internal/lifecycle"
	"deepsketch/internal/workload"
)

// State is a controller cycle's phase.
type State string

// Cycle states: a trigger starts a refresh, the refreshed sketch canaries,
// and the gate ends the cycle by promoting or aborting it.
const (
	StateIdle       State = "idle"
	StateRefreshing State = "refreshing"
	StateCanarying  State = "canarying"
)

// Event is one controller state transition, delivered to the OnEvent hook.
type Event struct {
	// Name is the sketch the transition concerns.
	Name string
	// Kind is "refresh_started", "canary_started", "promoted", "aborted",
	// "pinned_rejected" or "error".
	Kind string
	// Version is the version the transition produced or judged (0 when not
	// applicable). For "pinned_rejected" it is the base version that stays
	// live — the rejected candidate never received a version number.
	Version int
	// Reason is the trigger that started the cycle. For "pinned_rejected"
	// it is instead the rail verdict (Kind "pinned_regress", Value the
	// candidate's pinned median, Threshold the tolerated limit).
	Reason Reason
	// Pinned carries the full rail judgment for Kind "pinned_rejected"
	// (and is nil otherwise).
	Pinned *PinnedResult
	// Err carries the failure for Kind "error".
	Err error
}

// ControllerConfig parameterizes a Controller.
type ControllerConfig struct {
	// CanaryFraction is the traffic share a refreshed sketch canaries at
	// before the gate judges it (default 0.1).
	CanaryFraction float64
	// PromoteAfter is the number of ground-truthed canary-split samples the
	// gate requires before judging (default 20).
	PromoteAfter int
	// MaxQRatio promotes the canary iff its windowed median q-error is at
	// most MaxQRatio times the primary's (default 1.1 — the canary may be
	// up to 10% worse and still promote, since it was refreshed for a
	// reason; set < 1 to require strict improvement).
	MaxQRatio float64
	// Epochs, StopAtValQ and Workers are passed through to the warm-start
	// refresh (see lifecycle.RefreshOptions).
	Epochs     int
	StopAtValQ float64
	Workers    int
	// Pinned, when non-nil, is the held-out pinned-benchmark rail: before
	// a refresh candidate's canary starts, the candidate is evaluated on
	// this frozen labeled set against the live version, and the cycle
	// aborts ("pinned_rejected") if it regresses beyond PinnedMaxRegress —
	// even when the live windows, which an adaptive feedback source can
	// steer, would later promote it.
	Pinned *PinnedBenchmark
	// PinnedMaxRegress is the rail tolerance: the candidate's pinned-set
	// median and p95 q-error may each be at most this ratio × the live
	// version's (<= 0: DefaultPinnedMaxRegress).
	PinnedMaxRegress float64
	// Workload produces the labeled drift-delta workload to fine-tune on —
	// the daemon generates-and-labels over the sketch's tables; a test can
	// hand back a fixed slice.
	Workload func(ctx context.Context, name string) ([]workload.LabeledQuery, error)
	// SkipTrigger, when set, suppresses triggers for a name (return true to
	// skip). The registry only exposes an installed canary, so the daemon
	// wires this to "the sketch entry is not ready": a trigger that fires
	// while an operator's refresh or canary fine-tune is still training
	// must not start a second concurrent retrain of the same sketch. The
	// daemon also skips while too little logged feedback has arrived to
	// refresh on. A skipped trigger re-arms the monitor, so the next
	// sample evaluates the thresholds again instead of waiting out the
	// cooldown.
	SkipTrigger func(name string) bool
	// OnEvent observes state transitions (nil for none). Called without
	// controller locks held.
	OnEvent func(Event)
	// Synchronous runs the refresh inline in the trigger handler instead of
	// a background goroutine — deterministic for tests; leave false in
	// servers, where triggers fire from the serving path.
	Synchronous bool
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.CanaryFraction <= 0 || c.CanaryFraction > 1 {
		c.CanaryFraction = 0.1
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 20
	}
	if c.MaxQRatio <= 0 {
		c.MaxQRatio = 1.1
	}
	return c
}

// cycle is one in-flight drift-repair cycle.
type cycle struct {
	state       State
	reason      Reason
	startedAt   time.Time
	baseVersion int
	canaryVer   int
}

// CycleStatus reports a sketch's controller state for the drift endpoint.
type CycleStatus struct {
	State       State     `json:"state"`
	Reason      *Reason   `json:"reason,omitempty"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	BaseVersion int       `json:"base_version,omitempty"`
	CanaryVer   int       `json:"canary_version,omitempty"`
	LastError   string    `json:"last_error,omitempty"`
	// Pinned is the most recent pinned-benchmark rail judgment for this
	// sketch (nil when the rail is off or has not run); it outlives the
	// cycle that produced it, like LastError.
	Pinned *PinnedResult `json:"pinned,omitempty"`
}

// Controller closes the drift loop over a lifecycle registry: monitor
// trigger → warm-start refresh on a delta workload → canary at a traffic
// fraction → comparative windowed q-error gate → promote or abort. One
// cycle runs per sketch at a time; triggers during a cycle are ignored
// (the cycle is already repairing the drift they report).
type Controller struct {
	reg *lifecycle.Registry
	mon *Monitor
	cfg ControllerConfig

	mu         sync.Mutex
	cycles     map[string]*cycle
	lastErr    map[string]string
	lastPinned map[string]*PinnedResult
	ctx        context.Context
}

// NewController wires a controller to the registry and monitor and
// installs itself as the monitor's trigger handler.
//
//deepsketch:ctxorigin long-lived background actor; refresh cycles outlive any one caller
func NewController(reg *lifecycle.Registry, mon *Monitor, cfg ControllerConfig) *Controller {
	c := &Controller{
		reg: reg, mon: mon, cfg: cfg.withDefaults(),
		cycles:     make(map[string]*cycle),
		lastErr:    make(map[string]string),
		lastPinned: make(map[string]*PinnedResult),
		ctx:        context.Background(),
	}
	mon.OnTrigger(c.handleTrigger)
	return c
}

// handleTrigger starts a repair cycle for name unless one is already
// running, a canary is already active (an operator-started rollout is in
// flight — refreshing on top of it would only burn a retrain that
// StartCanary must reject), or the trigger concerns a version that is no
// longer live (a canary window tripping a threshold is judged by the
// gate, not repaired again).
func (c *Controller) handleTrigger(name string, r Reason) {
	_, live, err := c.reg.Live(name)
	if err != nil {
		return // not a registry-managed sketch (e.g. a fallback backend)
	}
	if r.Version != 0 && r.Version != live {
		return
	}
	if _, active := c.reg.Canary(name); active {
		return
	}
	if c.cfg.SkipTrigger != nil && c.cfg.SkipTrigger(name) {
		c.mon.Rearm(name)
		return
	}
	c.mu.Lock()
	if _, active := c.cycles[name]; active {
		c.mu.Unlock()
		return
	}
	cy := &cycle{state: StateRefreshing, reason: r, startedAt: time.Now(), baseVersion: live}
	c.cycles[name] = cy
	ctx := c.ctx
	c.mu.Unlock()

	c.emit(Event{Name: name, Kind: "refresh_started", Version: live, Reason: r})
	if c.cfg.Synchronous {
		c.runRefresh(ctx, name, cy)
	} else {
		go c.runRefresh(ctx, name, cy)
	}
}

// runRefresh fine-tunes the live sketch on a delta workload, judges the
// candidate against the pinned benchmark (when the rail is configured),
// and only then installs it as a canary; failures and rail rejections end
// the cycle with the live version untouched.
func (c *Controller) runRefresh(ctx context.Context, name string, cy *cycle) {
	// A cycle ends only after its final event has been observed, so a
	// caller that sees it idle in Cycle also sees what OnEvent did.
	fail := func(err error) {
		c.emit(Event{Name: name, Kind: "error", Reason: cy.reason, Err: err})
		c.mu.Lock()
		delete(c.cycles, name)
		c.lastErr[name] = err.Error()
		c.mu.Unlock()
	}
	if c.cfg.Workload == nil {
		fail(fmt.Errorf("drift: controller has no Workload source configured"))
		return
	}
	labeled, err := c.cfg.Workload(ctx, name)
	if err != nil {
		fail(fmt.Errorf("drift: delta workload for %q: %w", name, err))
		return
	}
	cand, err := c.reg.RefreshCandidate(ctx, lifecycle.RefreshOptions{
		Name: name, Workload: labeled,
		Epochs: c.cfg.Epochs, StopAtValQ: c.cfg.StopAtValQ, Workers: c.cfg.Workers,
	})
	if err != nil {
		fail(fmt.Errorf("drift: refresh of %q: %w", name, err))
		return
	}
	c.mon.MarkRefreshed(name)
	// The pinned rail judges the candidate BEFORE the canary starts: the
	// delta workload and the live windows both come from observed traffic,
	// the one channel an adaptive feedback source controls, so a candidate
	// that merely echoes poisoned feedback must be stopped here — the
	// comparative canary gate downstream would grade it against the same
	// poisoned windows and wave it through.
	if c.cfg.Pinned != nil && c.cfg.Pinned.Len() > 0 {
		liveSk, _, lerr := c.reg.Live(name)
		if lerr != nil {
			fail(fmt.Errorf("drift: pinned rail for %q: %w", name, lerr))
			return
		}
		res, jerr := c.cfg.Pinned.Judge(ctx, liveSk, cand, c.cfg.PinnedMaxRegress)
		if jerr != nil {
			fail(fmt.Errorf("drift: pinned rail for %q: %w", name, jerr))
			return
		}
		c.mu.Lock()
		c.lastPinned[name] = &res
		c.mu.Unlock()
		if !res.Pass {
			c.emit(Event{
				Name: name, Kind: "pinned_rejected", Version: cy.baseVersion,
				Reason: Reason{Kind: "pinned_regress", Value: res.Candidate.Median, Threshold: res.Live.Median * res.MaxRegress},
				Pinned: &res,
			})
			c.mu.Lock()
			delete(c.cycles, name)
			c.mu.Unlock()
			return
		}
	}
	ver, err := c.reg.StartCanary(name, cand, c.cfg.CanaryFraction)
	if err != nil {
		fail(fmt.Errorf("drift: canary of %q: %w", name, err))
		return
	}
	c.mu.Lock()
	cy.state = StateCanarying
	cy.canaryVer = ver
	c.mu.Unlock()
	c.emit(Event{Name: name, Kind: "canary_started", Version: ver, Reason: cy.reason})
}

// AdoptCanary registers an already-active registry canary (one resumed
// from a persistent store after a restart, or started by an operator) as
// a canarying cycle, so the comparative q-error gate judges it on
// subsequent Ticks — without it, a daemon restarted mid-canary would
// serve the split forever, promoted by nobody. Reports whether a cycle
// was adopted; no-op when the name has no canary or already has a cycle.
func (c *Controller) AdoptCanary(name string) bool {
	ci, ok := c.reg.Canary(name)
	if !ok {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, active := c.cycles[name]; active {
		return false
	}
	c.cycles[name] = &cycle{
		state: StateCanarying, reason: Reason{Kind: "adopted"}, startedAt: time.Now(),
		baseVersion: ci.BaseVersion, canaryVer: ci.Version,
	}
	return true
}

// Tick drives the canary gates and the staleness clock; call it on a
// timer (Run does) or directly in tests. For every canarying sketch whose
// canary window has accumulated PromoteAfter ground-truthed samples, the
// gate compares windowed median q-errors and promotes or aborts.
func (c *Controller) Tick() {
	c.mon.CheckStaleness()

	type judged struct {
		name    string
		cy      *cycle
		promote bool
	}
	var decisions []judged
	c.mu.Lock()
	for name, cy := range c.cycles {
		if cy.state != StateCanarying {
			continue
		}
		if _, ok := c.reg.Canary(name); !ok {
			// Promoted, aborted or swapped away by an operator out of band;
			// the cycle is moot.
			delete(c.cycles, name)
			continue
		}
		canarySum, canaryN, ok := c.mon.Summary(name, cy.canaryVer)
		if !ok || canaryN < uint64(c.cfg.PromoteAfter) {
			continue
		}
		primarySum, primaryN, ok := c.mon.Summary(name, cy.baseVersion)
		if !ok || primaryN == 0 {
			continue
		}
		decisions = append(decisions, judged{
			name: name, cy: cy,
			promote: canarySum.Median <= primarySum.Median*c.cfg.MaxQRatio,
		})
	}
	for _, d := range decisions {
		delete(c.cycles, d.name)
	}
	c.mu.Unlock()

	for _, d := range decisions {
		if d.promote {
			ver, err := c.reg.PromoteCanary(d.name)
			if err != nil {
				c.noteErr(d.name, err)
				c.emit(Event{Name: d.name, Kind: "error", Reason: d.cy.reason, Err: err})
				continue
			}
			c.emit(Event{Name: d.name, Kind: "promoted", Version: ver, Reason: d.cy.reason})
		} else {
			if err := c.reg.AbortCanary(d.name); err != nil {
				c.noteErr(d.name, err)
				c.emit(Event{Name: d.name, Kind: "error", Reason: d.cy.reason, Err: err})
				continue
			}
			c.emit(Event{Name: d.name, Kind: "aborted", Version: d.cy.canaryVer, Reason: d.cy.reason})
		}
	}
}

// emit delivers one event to the OnEvent hook, if any.
func (c *Controller) emit(ev Event) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}

func (c *Controller) noteErr(name string, err error) {
	c.mu.Lock()
	c.lastErr[name] = err.Error()
	c.mu.Unlock()
}

// Run drives the controller until ctx is done: monitor processing in the
// caller's charge (Monitor.Run), gates and staleness here, every interval.
func (c *Controller) Run(ctx context.Context, interval time.Duration) {
	c.mu.Lock()
	c.ctx = ctx
	c.mu.Unlock()
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick()
		}
	}
}

// Cycle reports name's controller state (StateIdle when no cycle runs).
func (c *Controller) Cycle(name string) CycleStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CycleStatus{State: StateIdle, LastError: c.lastErr[name], Pinned: c.lastPinned[name]}
	if cy, ok := c.cycles[name]; ok {
		r := cy.reason
		st.State = cy.state
		st.Reason = &r
		st.StartedAt = cy.startedAt
		st.BaseVersion = cy.baseVersion
		st.CanaryVer = cy.canaryVer
	}
	return st
}
