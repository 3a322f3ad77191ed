package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running cmd/deepsketchd process and the HTTP client that
// talks to it over loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
	exited chan struct{}
	err    error // the process's exit status, valid once exited is closed
	waiter sync.WaitGroup
}

// startDaemon launches bin with the given flags on a free loopback port.
// At most conns connections are opened to it. The daemon's log goes to
// logPath.
func startDaemon(bin string, flags []string, logPath string, conns int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		log:    logf,
		exited: make(chan struct{}),
	}
	d.waiter.Add(1)
	go func() {
		defer d.waiter.Done()
		d.err = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitUp polls GET /api/datasets until the daemon answers 200.
func (d *daemon) waitUp(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, err := d.call(ctx, http.MethodGet, "/api/datasets", nil, nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("deepsketchd exited during start-up: %v (log %s)", d.err, d.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deepsketchd did not answer within %v", timeout)
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after a
// grace period) and reports whether it shut down cleanly.
func (d *daemon) stop() error {
	defer d.log.Close()
	defer d.waiter.Wait()
	defer d.client.CloseIdleConnections()
	select {
	case <-d.exited:
		return fmt.Errorf("deepsketchd had already exited: %v", d.err)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		if err := d.cmd.Process.Kill(); err != nil {
			return err
		}
		<-d.exited
		return errors.New("deepsketchd ignored SIGTERM for 30s and was killed")
	}
}

// call sends one request with an optional JSON body and decodes a JSON
// response into out (when non-nil). It returns the HTTP status; a non-nil
// error means no status was received.
func (d *daemon) call(ctx context.Context, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(blob, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// mustCall is call for admin requests: any status other than want is an
// error.
func (d *daemon) mustCall(ctx context.Context, method, path string, body, out any, want int) error {
	status, err := d.call(ctx, method, path, body, out)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d", method, path, status, want)
	}
	return nil
}

// download fetches the serialized sketch the daemon is serving.
func (d *daemon) download(ctx context.Context, id int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/api/sketches/"+strconv.Itoa(id)+"/download", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("download of sketch %d: status %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// peakRSSMiB reads the daemon's peak resident set size (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// cpuSeconds is the daemon's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in USER_HZ (100/s)
	// ticks.
	rest := string(blob[bytes.LastIndexByte(blob, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// sketchReq is the POST /api/sketches body: the parameters of the
// daemon's -prebuilt sketches.
type sketchReq struct {
	Name         string `json:"name"`
	Dataset      string `json:"dataset"`
	SampleSize   int    `json:"sample_size"`
	TrainQueries int    `json:"train_queries"`
	Epochs       int    `json:"epochs"`
	HiddenUnits  int    `json:"hidden_units"`
	Seed         int64  `json:"seed"`
}

// Sketch parameters of the daemon's -prebuilt sketches.
const (
	sketchSamples = 500
	sketchQueries = 3000
	sketchEpochs  = 20
	sketchHidden  = 32
	sketchSeed    = 7
)

func prebuiltReq(name, dataset string) sketchReq {
	return sketchReq{
		Name: name, Dataset: dataset, SampleSize: sketchSamples, TrainQueries: sketchQueries,
		Epochs: sketchEpochs, HiddenUnits: sketchHidden, Seed: sketchSeed,
	}
}

// sketchInfo is the part of GET /api/sketches/{id} the benchmark reads.
type sketchInfo struct {
	ID       int    `json:"id"`
	Status   string `json:"status"`
	Error    string `json:"error"`
	Version  int    `json:"version"`
	Progress struct {
		StageMS map[string]float64 `json:"stage_ms"`
	} `json:"progress"`
}

// pollEvery is the admin polling interval while a build or refresh runs.
const pollEvery = 10 * time.Millisecond

// awaitSketch polls the sketch until it is ready at a version above
// minVersion.
func (d *daemon) awaitSketch(ctx context.Context, id, minVersion int) (sketchInfo, error) {
	path := "/api/sketches/" + strconv.Itoa(id)
	for {
		var info sketchInfo
		if err := d.mustCall(ctx, http.MethodGet, path, nil, &info, http.StatusOK); err != nil {
			return info, err
		}
		switch {
		case info.Status == "failed":
			return info, fmt.Errorf("sketch %d failed: %s", id, info.Error)
		case info.Status == "ready" && info.Version > minVersion:
			if info.Error != "" {
				return info, fmt.Errorf("sketch %d: %s", id, info.Error)
			}
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// adminCost is what an operation took: wall seconds from the request
// until the result served, and the daemon CPU seconds spent meanwhile.
type adminCost struct{ wall, cpu float64 }

// timeAdmin runs op and measures its cost.
func (d *daemon) timeAdmin(op func() error) (adminCost, error) {
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return adminCost{}, err
	}
	start := time.Now()
	if err := op(); err != nil {
		return adminCost{}, err
	}
	wall := time.Since(start).Seconds()
	cpu1, err := d.cpuSeconds()
	return adminCost{wall: wall, cpu: cpu1 - cpu0}, err
}

// buildSketch defines a sketch with the -prebuilt parameters and waits
// until it serves. It returns the sketch id and the build's cost.
func (d *daemon) buildSketch(ctx context.Context, name, dataset string) (int, adminCost, sketchInfo, error) {
	var created, info sketchInfo
	cost, err := d.timeAdmin(func() error {
		if err := d.mustCall(ctx, http.MethodPost, "/api/sketches", prebuiltReq(name, dataset), &created, http.StatusAccepted); err != nil {
			return err
		}
		var err error
		info, err = d.awaitSketch(ctx, created.ID, 0)
		return err
	})
	return created.ID, cost, info, err
}

// refreshSketch runs POST /api/sketches/{id}/refresh with the daemon's
// default delta workload and waits for the new version to serve.
func (d *daemon) refreshSketch(ctx context.Context, id, version int) (adminCost, error) {
	return d.timeAdmin(func() error {
		if err := d.mustCall(ctx, http.MethodPost, "/api/sketches/"+strconv.Itoa(id)+"/refresh", struct{}{}, nil, http.StatusAccepted); err != nil {
			return err
		}
		_, err := d.awaitSketch(ctx, id, version)
		return err
	})
}
