package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"zeiot/internal/jobs"
)

// daemon-mix traffic, sized for a 2-core box: closed-loop cache hits reach
// several thousand per second there, and a fresh job costs about a third
// of a CPU second, so these rates keep the daemon near one core while the
// fresh jobs still compete with HTTP for both. (3.4 fresh jobs/s, enough
// for 100 in a 30 s run, took it to 1.4 cores and the median hit latency
// then spread 90% from run to run.)
const (
	hitsPerSecond   = 500.0
	freshPerSecond  = 2.0
	invalidShare    = 0.01 // of hit traffic
	defectJobs      = 3    // e3 at SampleScale 0.25 per run (known defect, see README.md)
	workingSetSeeds = 35   // × 7 cheap experiments = the warmed working set
	zipfExponent    = 1.0
	daemonSetups    = 3
	pollInterval    = 200 * time.Millisecond
	// lateBound is how late (p99) the generator may dispatch before the run
	// is invalid: beyond it, latencies measure the generator, not the daemon.
	lateBound = 50 * time.Millisecond
	// maxInFlight bounds outstanding requests; requests beyond the client's
	// connections wait here, and their wait counts in their latency.
	maxInFlight = 256
	// freshUniverseBase offsets fresh-job seeds from the working set's.
	freshUniverseBase = 1000
)

var (
	cheapExperiments = []string{"e6", "e7", "e9", "e10", "e11", "e13", "e15"}
	freshExperiments = []string{"e1", "e3", "e4", "e8", "e12", "e14"}
	// invalidBodies must each be refused with 400: malformed JSON, an
	// unknown config field, an unknown experiment.
	invalidBodies = []string{
		`{"experiment":"e6","config":{"Seed":`,
		`{"experiment":"e6","config":{"Seed":1,"Bogus":true}}`,
		`{"experiment":"e99","config":{"Seed":1}}`,
	}
)

func workingSet() []jobSpec {
	var ws []jobSpec
	for s := uint64(1); s <= workingSetSeeds; s++ {
		for _, e := range cheapExperiments {
			ws = append(ws, jobSpec{Experiment: e, Seed: s})
		}
	}
	return ws
}

// event kinds of the arrival schedule.
const (
	evHit = iota
	evFresh
	evInvalid
	evList
	evMetrics
)

var kindNames = []string{"hit", "fresh", "invalid", "list", "metrics"}

type event struct {
	at   time.Duration // offset from the start of the timed phase
	kind int
	spec jobSpec // hit and fresh
	body string  // invalid
}

// buildSchedule derives the whole open-loop arrival schedule from the
// seed: hits Zipf-popular over the working set, fresh jobs cycling evenly
// through freshExperiments with seeds drawn without replacement, a few
// known-defect e3 jobs, invalid submissions, and a dashboard GET /jobs and
// scraper GET /metrics once a second each. Arrivals of a class are
// stratified: the i-th of n falls at a seeded uniform offset inside the
// i-th of n equal slots. That keeps the offered rate exact over every
// stretch of the run, so seeds change which requests come when, not how
// bursty the load is.
func buildSchedule(seed uint64, seconds float64, ws []jobSpec) []event {
	r := rand.New(rand.NewPCG(seed, 0x7a65696f74))
	span := time.Duration(seconds * float64(time.Second))
	at := func(i, n int) time.Duration {
		return time.Duration((float64(i) + r.Float64()) / float64(n) * float64(span))
	}
	var evs []event

	rank := r.Perm(len(ws))
	cdf := make([]float64, len(ws))
	total := 0.0
	for k := range ws {
		total += 1 / math.Pow(float64(k+1), zipfExponent)
		cdf[k] = total
	}
	nHits := int(hitsPerSecond * seconds)
	for i := 0; i < nHits; i++ {
		k := sort.SearchFloat64s(cdf, r.Float64()*total)
		evs = append(evs, event{at: at(i, nHits), kind: evHit, spec: ws[rank[min(k, len(ws)-1)]]})
	}
	nInvalid := int(math.Ceil(invalidShare * float64(nHits)))
	for i := 0; i < nInvalid; i++ {
		evs = append(evs, event{at: at(i, nInvalid), kind: evInvalid, body: invalidBodies[i%len(invalidBodies)]})
	}

	nFresh := int(math.Ceil(freshPerSecond * seconds))
	perExp := (nFresh + len(freshExperiments) - 1) / len(freshExperiments)
	universe := uint64(perExp + 3)
	seeds := make([][]int, len(freshExperiments))
	for i := range seeds {
		seeds[i] = r.Perm(int(universe))
	}
	for i := 0; i < nFresh; i++ {
		e := i % len(freshExperiments)
		s := freshUniverseBase + uint64(seeds[e][i/len(freshExperiments)])
		evs = append(evs, event{at: at(i, nFresh), kind: evFresh, spec: jobSpec{Experiment: freshExperiments[e], Seed: s, SampleScale: 0.5}})
	}
	for i := 0; i < defectJobs; i++ {
		evs = append(evs, event{at: at(i, defectJobs), kind: evFresh, spec: jobSpec{Experiment: "e3", Seed: freshUniverseBase + uint64(i), SampleScale: 0.25}})
	}
	for t := time.Duration(0); t < span; t += time.Second {
		evs = append(evs, event{at: t + 250*time.Millisecond, kind: evMetrics}, event{at: t + 750*time.Millisecond, kind: evList})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// lateness returns how late each event was dispatched: its dispatch time
// minus its due time, never below zero.
func lateness(due, dispatched []time.Time) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		out[i] = math.Max(0, float64(dispatched[i].Sub(due[i])))
	}
	return out
}

// daemonProc is a running zeiotd.
type daemonProc struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	done    chan struct{} // closed once stdout is drained
}

func startDaemon(ctx context.Context, bin string) (*daemonProc, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(runtime.NumCPU()), "-queue", "64", "-grace", "2s")
	cmd.Stderr = os.Stderr
	// Dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, started: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("zeiotd did not report its address: %w", err)
	}
	// "zeiotd: listening on 127.0.0.1:port (workers N, queue M)"
	f := strings.Fields(line)
	if len(f) < 4 || f[1] != "listening" {
		d.kill()
		return nil, fmt.Errorf("unexpected zeiotd banner %q", line)
	}
	d.addr = f[3]
	go func() {
		// The drain flushes every job's status on exit; discard it.
		io.Copy(io.Discard, br)
		close(d.done)
	}()
	return d, nil
}

func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (d *daemonProc) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
	}
	return d.cmd.Wait()
}

// cpuTime reads the daemon's user+sys CPU from /proc.
func (d *daemonProc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// resetPeakRSS restarts the kernel's peak-RSS record of the daemon, so the
// peak read after the timed phase belongs to that phase, not to set-up.
func (d *daemonProc) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", d.cmd.Process.Pid), []byte("5"), 0)
}

// peakRSSMB reads the daemon's peak resident set from /proc.
func (d *daemonProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// client talks to one daemon over at most nproc connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// submitResp and jobStatus mirror the daemon's wire forms.
type submitResp struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Key      string `json:"key"`
	CacheHit bool   `json:"cache_hit"`
}

type jobStatus struct {
	ID         string             `json:"id"`
	State      string             `json:"state"`
	Error      string             `json:"error"`
	Submitted  time.Time          `json:"submitted"`
	Started    time.Time          `json:"started"`
	Finished   time.Time          `json:"finished"`
	TimingsSec map[string]float64 `json:"timings_sec"`
}

// mixStats collects a daemon-mix phase's measurements.
type mixStats struct {
	mu                                 sync.Mutex
	hit, status, result, metrics, list []float64 // latencies, ms
	miss, queueWait, runTime           []float64 // seconds
	missByExp                          map[string][]float64
	listBytes, retained                int
	queueDepthMax                      float64
	failedJobs, defects                int
	expTotals                          map[string]float64
	stageTotals                        map[string]float64
}

func (m *mixStats) add(dst *[]float64, v float64) {
	m.mu.Lock()
	*dst = append(*dst, v)
	m.mu.Unlock()
}

// mixRun drives one daemon through set-up and one timed phase.
type mixRun struct {
	env  *benchEnv
	rep  *report
	tr   *tracer
	root int
	refs map[jobSpec]reference
	keys map[jobSpec]string // working-set config → key the daemon reported
	st   *mixStats
	// cpu (s) and rss (MB) of the daemon over the last timed phase.
	cpu, rss float64
}

func (m *mixRun) failf(format string, args ...any) {
	m.st.mu.Lock()
	defer m.st.mu.Unlock()
	m.rep.fail(1, fmt.Errorf(format, args...))
}

// setup starts a daemon, waits for /healthz, then runs every working-set
// config once and checks its bytes. It returns the daemon and the set-up
// time.
func (m *mixRun) setup(ctx context.Context, ws []jobSpec) (*daemonProc, *client, time.Duration, error) {
	d, err := startDaemon(ctx, m.env.zeiotd)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.addr)
	for {
		code, _, err := c.do(ctx, "GET", "/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Since(d.started) > 30*time.Second {
			d.kill()
			return nil, nil, 0, fmt.Errorf("zeiotd /healthz: %d %v", code, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	keys := make(map[jobSpec]string, len(ws))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 32) // under the daemon's queue bound of 64
	var firstErr error
	for _, j := range ws {
		wg.Add(1)
		sem <- struct{}{}
		go func(j jobSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			key, err := m.runAndCheck(ctx, c, j, 5*time.Millisecond)
			mu.Lock()
			defer mu.Unlock()
			keys[j] = key
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("warm %s: %w", j, err)
			}
		}(j)
	}
	wg.Wait()
	took := time.Since(d.started)
	if firstErr != nil {
		d.stop()
		return nil, nil, 0, firstErr
	}
	m.keys = keys
	return d, c, took, nil
}

// runAndCheck submits j as a fresh job, polls it to completion and checks
// the outcome against its reference. It returns the job's config key.
func (m *mixRun) runAndCheck(ctx context.Context, c *client, j jobSpec, poll time.Duration) (string, error) {
	code, body, err := c.do(ctx, "POST", "/jobs", j.body())
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %s", code, body)
	}
	var sr submitResp
	if err := json.Unmarshal(body, &sr); err != nil {
		return "", err
	}
	var st jobStatus
	for {
		time.Sleep(poll)
		code, body, err := c.do(ctx, "GET", "/jobs/"+sr.ID, nil)
		if err != nil || code != http.StatusOK {
			return "", fmt.Errorf("status: %d %v", code, err)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return "", err
		}
		if jobs.State(st.State).Terminal() {
			break
		}
	}
	return sr.Key, m.checkOutcome(ctx, c, j, sr.ID, st, nil)
}

// checkOutcome compares a finished job with its reference: a done job's
// result bytes must equal zeiotbench's, a failed job must fail with the
// error zeiotbench reports for the same config. lat, when non-nil,
// receives the result fetch latency in ms.
func (m *mixRun) checkOutcome(ctx context.Context, c *client, j jobSpec, id string, st jobStatus, lat func(ms float64)) error {
	ref := m.refs[j]
	switch st.State {
	case "done":
		start := time.Now()
		code, body, err := c.do(ctx, "GET", "/jobs/"+id+"/result", nil)
		if lat != nil {
			lat(float64(time.Since(start)) / 1e6)
		}
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("result: %d %v", code, err)
		}
		if ref.Bytes == nil {
			return fmt.Errorf("job done, but zeiotbench fails this config: %s", ref.Err)
		}
		return diffBytes(body, ref.Bytes)
	case "failed":
		if ref.Err == "" || !strings.Contains(st.Error, ref.Err) {
			return fmt.Errorf("job failed with %q; zeiotbench gives %q", st.Error, ref.Err)
		}
		return nil
	default:
		return fmt.Errorf("job ended %s", st.State)
	}
}

// scrape reads the daemon's /metrics gauges and counters by name.
func scrape(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// phase runs the timed open-loop phase against d and returns its wall time
// (first due send to last outcome) and the generator's lateness samples.
func (m *mixRun) phase(ctx context.Context, d *daemonProc, c *client, sched []event) (time.Duration, []float64, error) {
	m.st = &mixStats{missByExp: map[string][]float64{}, expTotals: map[string]float64{}, stageTotals: map[string]float64{}}
	code, body, err := c.do(ctx, "GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return 0, nil, fmt.Errorf("initial /metrics: %d %v", code, err)
	}
	before := scrape(body)
	cpu0, err := d.cpuTime()
	if err == nil {
		err = d.resetPeakRSS()
	}
	if err != nil {
		return 0, nil, err
	}

	t0 := time.Now().Add(20 * time.Millisecond)
	due := make([]time.Time, len(sched))
	dispatched := make([]time.Time, len(sched))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for i, ev := range sched {
		due[i] = t0.Add(ev.at)
		if wait := time.Until(due[i]); wait > 0 {
			time.Sleep(wait)
		}
		dispatched[i] = time.Now()
		sem <- struct{}{}
		wg.Add(1)
		go func(ev event, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			m.handle(ctx, c, ev, due)
		}(ev, due[i])
	}
	wg.Wait()
	wall := time.Since(t0)

	cpu1, err := d.cpuTime()
	if err != nil {
		return 0, nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return 0, nil, err
	}
	code, body, err = c.do(ctx, "GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return 0, nil, fmt.Errorf("final /metrics: %d %v", code, err)
	}
	after := scrape(body)
	m.rep.attempted += 2
	delta := func(name string) float64 { return after["zeiotd_"+name] - before["zeiotd_"+name] }
	m.rep.layer("cache.hit_ratio", ratio(delta("cache_hits"), delta("jobs_submitted")))
	m.rep.layer("jobs.rejected", delta("rejected_queue_full")+delta("rejected_draining"))
	m.cpu, m.rss = (cpu1 - cpu0).Seconds(), rss
	return wall, lateness(due, dispatched), nil
}

// handle runs one scheduled event and records its outcome.
func (m *mixRun) handle(ctx context.Context, c *client, ev event, due time.Time) {
	st := m.st
	sp := m.tr.begin(m.root, "http", kindNames[ev.kind])
	defer m.tr.end(sp, nil)
	m.countOp()
	switch ev.kind {
	case evHit:
		code, body, err := c.do(ctx, "POST", "/jobs", ev.spec.body())
		st.add(&st.hit, float64(time.Since(due))/1e6)
		var sr submitResp
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &sr)
		}
		switch {
		case err != nil:
			m.failf("hit %s: %v", ev.spec, err)
		case code != http.StatusOK || !sr.CacheHit || sr.State != "done" || sr.Key != m.keys[ev.spec]:
			m.failf("hit %s: status %d, want a cache hit under key %s: %s", ev.spec, code, m.keys[ev.spec], body)
		}
	case evInvalid:
		code, _, err := c.do(ctx, "POST", "/jobs", []byte(ev.body))
		if err != nil || code != http.StatusBadRequest {
			m.failf("invalid submission %s: status %d %v, want 400", ev.body, code, err)
		}
	case evList:
		code, body, err := c.do(ctx, "GET", "/jobs", nil)
		st.add(&st.list, float64(time.Since(due))/1e6)
		if err != nil || code != http.StatusOK || len(body) == 0 || body[0] != '[' {
			m.failf("GET /jobs: status %d %v", code, err)
			return
		}
		st.mu.Lock()
		st.listBytes, st.retained = len(body), bytes.Count(body, []byte(`"id":`))
		st.mu.Unlock()
	case evMetrics:
		code, body, err := c.do(ctx, "GET", "/metrics", nil)
		st.add(&st.metrics, float64(time.Since(due))/1e6)
		if err != nil || code != http.StatusOK {
			m.failf("GET /metrics: status %d %v", code, err)
			return
		}
		qd := scrape(body)["zeiotd_queue_depth"]
		st.mu.Lock()
		st.queueDepthMax = math.Max(st.queueDepthMax, qd)
		st.mu.Unlock()
	case evFresh:
		m.fresh(ctx, c, ev.spec, due, sp)
	}
}

func (m *mixRun) countOp() {
	m.st.mu.Lock()
	m.rep.attempted++
	m.st.mu.Unlock()
}

// isDefect reports whether j is the known-defect config: e3 at SampleScale
// 0.25, which the daemon accepts and whose job then fails (README.md).
func isDefect(j jobSpec) bool { return j.Experiment == "e3" && j.SampleScale == 0.25 }

// fresh submits a config the daemon has not seen, polls it to its end,
// fetches and checks the result, and records the job's latencies from the
// daemon's own timestamps.
func (m *mixRun) fresh(ctx context.Context, c *client, j jobSpec, due time.Time, parent int) {
	st := m.st
	code, body, err := c.do(ctx, "POST", "/jobs", j.body())
	if err != nil {
		m.failf("fresh %s: %v", j, err)
		return
	}
	if isDefect(j) && code == http.StatusBadRequest {
		return // the fixed behaviour: refused at submission
	}
	var sr submitResp
	if code != http.StatusAccepted || json.Unmarshal(body, &sr) != nil || sr.CacheHit {
		m.failf("fresh %s: status %d, want 202 and a miss: %s", j, code, body)
		return
	}
	var js jobStatus
	for {
		time.Sleep(pollInterval)
		sp := m.tr.begin(parent, "http", "status")
		m.countOp()
		start := time.Now()
		code, body, err := c.do(ctx, "GET", "/jobs/"+sr.ID, nil)
		st.add(&st.status, float64(time.Since(start))/1e6)
		m.tr.end(sp, nil)
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &js)
		} else if err == nil {
			err = fmt.Errorf("status %d", code)
		}
		if err != nil {
			m.failf("poll %s: %v", j, err)
			return
		}
		if jobs.State(js.State).Terminal() {
			break
		}
		if time.Since(due) > 3*time.Minute {
			m.failf("fresh %s: still %s after 3 minutes", j, js.State)
			return
		}
	}
	if js.State == "done" {
		m.countOp()
	}
	sp := m.tr.begin(parent, "http", "result")
	err = m.checkOutcome(ctx, c, j, sr.ID, js, func(ms float64) { st.add(&st.result, ms) })
	m.tr.end(sp, nil)
	if err != nil {
		m.failf("fresh %s: %v", j, err)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if js.State == "failed" {
		st.failedJobs++
		if isDefect(j) {
			st.defects++
		}
		return
	}
	st.miss = append(st.miss, js.Finished.Sub(due).Seconds())
	st.missByExp[j.Experiment] = append(st.missByExp[j.Experiment], js.Finished.Sub(due).Seconds())
	st.queueWait = append(st.queueWait, js.Started.Sub(js.Submitted).Seconds())
	st.runTime = append(st.runTime, js.Finished.Sub(js.Started).Seconds())
	st.expTotals[j.Experiment] += js.TimingsSec["total"]
	for stage, s := range js.TimingsSec {
		if stage != "total" {
			st.stageTotals[stage] += s
		}
	}
}

// runDaemonMix measures daemon-mix: references first (untimed), then
// daemonSetups set-ups of which the last daemon serves the timed phase. A
// traced run repeats the phase on a fresh daemon with a span per request,
// then runs the layer probes.
func runDaemonMix(ctx context.Context, env *benchEnv, seed uint64, seconds float64, rep *report, tr *tracer) error {
	ws := workingSet()
	sched := buildSchedule(seed, seconds, ws)
	specs := append([]jobSpec(nil), ws...)
	for _, ev := range sched {
		if ev.kind == evFresh {
			specs = append(specs, ev.spec)
		}
	}
	refs, err := env.refs.get(ctx, specs, refWorkers)
	if err != nil {
		return fmt.Errorf("references: %w", err)
	}
	m := &mixRun{env: env, rep: rep, refs: refs}

	setups := daemonSetups
	if tr != nil {
		setups = 1
	}
	var setupTimes []float64
	var d *daemonProc
	var c *client
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return fmt.Errorf("zeiotd exit: %w", err)
			}
		}
		var took time.Duration
		if d, c, took, err = m.setup(ctx, ws); err != nil {
			return err
		}
		setupTimes = append(setupTimes, took.Seconds())
	}
	wall, late, err := m.phase(ctx, d, c, sched)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("zeiotd exit: %w", stopErr)
	}
	if err != nil {
		return err
	}
	m.endToEnd(setupTimes, wall, late)
	if tr == nil {
		return nil
	}

	m.root = tr.begin(0, "workload", rep.workload)
	m.tr = tr
	d, c, _, err = m.setup(ctx, ws)
	if err != nil {
		return err
	}
	tracedWall, tracedLate, err := m.phase(ctx, d, c, sched)
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("zeiotd exit: %w", stopErr)
	}
	if err != nil {
		return err
	}
	m.perLayer(tracedLate)
	rep.layer("trace.overhead_s", tracedWall.Seconds()-wall.Seconds())
	runProbes(ctx, m.root, seed, rep, tr)
	tr.end(m.root, nil)
	return nil
}

// endToEnd reports the untimed phase's end-to-end metrics, the per-class
// latencies as table-only figures, and the validity check on the
// generator.
func (m *mixRun) endToEnd(setupTimes []float64, wall time.Duration, late []float64) {
	st, rep := m.st, m.rep
	rep.metric("wall_s", geoMeanOfMedians(st.missByExp), "s", len(st.miss))
	rep.metric("cpu_s", m.cpu, "s", 1)
	rep.metric("peak_rss_mb", m.rss, "MB", 1)
	rep.metric("setup_s", median(setupTimes), "s", len(setupTimes))
	rep.metric("op_ms", median(st.hit), "ms", len(st.hit))
	if v, p, ok := tail(st.hit, 90, 99); ok {
		rep.info(fmt.Sprintf("hit_p%g_ms", p), v, "ms", len(st.hit))
	}
	rep.info("miss_p50_s", median(st.miss), "s", len(st.miss))
	if v, p, ok := tail(st.miss, 80, 90); ok {
		rep.info(fmt.Sprintf("miss_p%g_s", p), v, "s", len(st.miss))
	}
	rep.info("list_p50_ms", median(st.list), "ms", len(st.list))
	rep.info("phase_wall_s", wall.Seconds(), "s", 1)
	lateP99 := quantile(late, 0.99) / 1e6
	rep.info("late_p99_ms", lateP99, "ms", len(late))
	if time.Duration(lateP99*1e6) > lateBound {
		rep.invalid = append(rep.invalid, fmt.Sprintf("generator dispatched %.1f ms late at p99 (bound %s)", lateP99, lateBound))
	}
	if st.defects > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf(
			"known defect: %d of %d e3 jobs at SampleScale 0.25 were accepted with 202 and then failed as zeiotbench does (%q); the daemon should refuse them with 400",
			st.defects, defectJobs, m.refs[jobSpec{Experiment: "e3", Seed: freshUniverseBase, SampleScale: 0.25}].Err))
	}
}

// perLayer reports the traced phase's per-layer metrics.
func (m *mixRun) perLayer(late []float64) {
	st, rep := m.st, m.rep
	at := func(xs []float64, p float64) float64 {
		if _, ok := tailPercentile(len(xs), p); !ok && p > 50 {
			return 0
		}
		return finite(quantile(xs, p/100))
	}
	rep.layer("http.hit_p50_ms", at(st.hit, 50))
	rep.layer("http.hit_p99_ms", at(st.hit, 99))
	rep.layer("http.status_p50_ms", at(st.status, 50))
	rep.layer("http.result_p50_ms", at(st.result, 50))
	rep.layer("http.metrics_p50_ms", at(st.metrics, 50))
	rep.layer("http.list_p50_ms", at(st.list, 50))
	rep.layer("http.list_bytes", float64(st.listBytes))
	rep.layer("jobs.miss_p50_s", at(st.miss, 50))
	rep.layer("jobs.miss_p80_s", at(st.miss, 80))
	rep.layer("jobs.queue_wait_p50_s", at(st.queueWait, 50))
	rep.layer("jobs.queue_wait_p80_s", at(st.queueWait, 80))
	rep.layer("jobs.run_p50_s", at(st.runTime, 50))
	rep.layer("jobs.queue_depth_max", st.queueDepthMax)
	rep.layer("jobs.retained", float64(st.retained))
	rep.layer("jobs.failed", float64(st.failedJobs))
	rep.layer("loadgen.late_p99_ms", quantile(late, 0.99)/1e6)
	for id, s := range st.expTotals {
		rep.layer("exp."+id+"_s", s)
	}
	for stage, s := range st.stageTotals {
		rep.layer("stage."+stage+"_s", s)
	}
}
