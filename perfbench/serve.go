package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// bootsPerRun is how many daemon boots a serve-http run times for
// setup_s; the last one serves the run.
const bootsPerRun = 61

// minTimedRequests keeps the printed p99 honest: at least ten requests
// lie beyond it.
const minTimedRequests = 1000

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ).
const clockTick = 10 * time.Millisecond

// daemon is one running ceres-serve process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	boot time.Duration // exec to the first 200 extract reply
	done chan error
}

// startDaemon boots ceres-serve over a model store with production
// defaults (tracing optional) and waits for the first 200 reply to the
// probe request.
func startDaemon(ctx context.Context, e *env, storeDir string, traced bool, probe request) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-addr", addr, "-store", storeDir}
	if traced {
		args = append(args, "-trace-sample", "1")
	}
	logFile, err := os.OpenFile(filepath.Join(e.work, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(e.serveBin, args...)
	cmd.Stderr = logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	client := &http.Client{Timeout: 30 * time.Second}
	u := extractURL(addr, probe.site)
	for {
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("ceres-serve did not answer within 60s")
		}
		select {
		case err := <-d.done:
			return nil, fmt.Errorf("ceres-serve exited during boot: %v (see daemon.log)", err)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		default:
		}
		resp, err := client.Post(u, "application/json", bytes.NewReader(probe.body))
		if err != nil {
			time.Sleep(250 * time.Microsecond)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			d.stop()
			return nil, fmt.Errorf("ceres-serve answered the boot probe with %s", resp.Status)
		}
		d.boot = time.Since(start)
		client.CloseIdleConnections()
		return d, nil
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() {
	if d.cmd.Process.Signal(syscall.SIGTERM) == nil {
		select {
		case <-d.done:
			return
		case <-time.After(40 * time.Second):
		}
	}
	d.cmd.Process.Kill()
	<-d.done
}

// cpu reads the daemon's user + system CPU time from /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat CPU times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSKB reads the daemon's high-water RSS (VmHWM).
func (d *daemon) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func extractURL(addr, site string) string {
	return "http://" + addr + "/v1/sites/" + url.PathEscape(site) + "/extract"
}

// newClients builds n load-generator clients, each holding one
// keep-alive connection.
func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// reqResult is one request's outcome as the client saw it.
type reqResult struct {
	status int
	lat    time.Duration
	body   []byte
}

// runPass sends reqs through closed-loop clients: each client
// sends its next request once the previous reply has arrived. It returns
// the results by request index and the pass's wall time.
func runPass(ctx context.Context, clients []*http.Client, addr string, reqs []request) ([]reqResult, time.Duration, error) {
	results := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				r, err := send(ctx, c, addr, reqs[i])
				if err != nil {
					errs[ci] = err
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return results, wall, ctx.Err()
}

func send(ctx context.Context, c *http.Client, addr string, r request) (reqResult, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, extractURL(addr, r.site), bytes.NewReader(r.body))
	if err != nil {
		return reqResult{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	t := time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		return reqResult{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t)
	if err != nil {
		return reqResult{}, err
	}
	return reqResult{status: resp.StatusCode, lat: lat, body: body}, nil
}

// verifyPass checks every 200 reply of a pass and scores the pass's facts.
// It returns the pass's correct facts, the pages served and the count of
// non-2xx replies.
func verifyPass(in *inputs, reqs []request, results []reqResult) (facts, pages, failed int, err error) {
	score := newFactScore(in.gold)
	for i, r := range results {
		if r.status < 200 || r.status > 299 {
			failed++
			continue
		}
		var resp wireResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return 0, 0, 0, failCheck("response-json", "%s: %v", reqs[i].site, err)
		}
		if err := checkResponse(reqs[i], &resp); err != nil {
			return 0, 0, 0, err
		}
		for _, t := range resp.Triples {
			score.add(reqs[i].site, t)
		}
		pages += len(reqs[i].pages)
	}
	if err := score.check(); err != nil {
		return 0, 0, 0, err
	}
	return len(score.correct), pages, failed, nil
}

// runServe runs serve-http: train a model for every trainable site on
// the leading half of its pages (a ceres-batch job, untimed), boot the
// daemon bootsPerRun times for setup_s, make one untimed warm-up pass and
// then timed passes of the seeded request set until --seconds of passes
// and minTimedRequests requests have run.
func runServe(ctx context.Context, e *env, in *inputs) (*result, error) {
	dir := filepath.Join(e.work, "serve")
	if _, err := in.writeStore(dir, trainHalf); err != nil {
		return nil, err
	}
	prep, err := freshJob(ctx, e, in, dir, false, e.trace, new(checkedOutput))
	if err != nil {
		return nil, err
	}
	reqs, err := in.buildRequests(prep.rep.Served, requestsPerPass)
	if err != nil {
		return nil, err
	}
	probe, err := in.probeRequest(prep.rep.Served)
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(dir, "models")
	if e.trace {
		return traceServe(ctx, e, in, storeDir, prep, probe, reqs)
	}

	var boots []float64
	var d *daemon
	for i := 0; i < bootsPerRun; i++ {
		if d != nil {
			d.stop()
		}
		if d, err = startDaemon(ctx, e, storeDir, false, probe); err != nil {
			return nil, err
		}
		boots = append(boots, d.boot.Seconds())
	}
	defer d.stop()
	printSetups("daemon boots", boots)
	clients := newClients(runtime.NumCPU())
	defer closeClients(clients)

	results, _, err := runPass(ctx, clients, d.addr, reqs)
	if err != nil {
		return nil, err
	}
	facts, _, _, err := verifyPass(in, reqs, results)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	var pagesS, cpuK, lats []float64
	var timed time.Duration
	for timed.Seconds() < e.seconds || len(lats) < minTimedRequests {
		c0, err := d.cpu()
		if err != nil {
			return nil, err
		}
		results, wall, err := runPass(ctx, clients, d.addr, reqs)
		if err != nil {
			return nil, err
		}
		c1, err := d.cpu()
		if err != nil {
			return nil, err
		}
		timed += wall
		f, pages, failed, err := verifyPass(in, reqs, results)
		if err != nil {
			return nil, err
		}
		if err := checkSameFacts(facts, f); err != nil {
			return nil, err
		}
		res.Attempted += len(reqs)
		res.Failed += failed
		pagesS = append(pagesS, float64(pages)/wall.Seconds())
		cpuK = append(cpuK, (c1-c0).Seconds()*1e6/float64(pages))
		for _, r := range results {
			lats = append(lats, r.lat.Seconds()*1000)
		}
	}
	rss, err := d.peakRSSKB()
	if err != nil {
		return nil, err
	}
	sort.Float64s(lats)
	fmt.Printf("operations: %d requests attempted, %d failed, over %d passes of %d requests to %d served sites; %d boots\n",
		res.Attempted, res.Failed, len(pagesS), len(reqs), len(prep.rep.Served), len(boots))
	// p99 is printed, not gated: its run-to-run spread on a shared
	// two-core box exceeds a tenth (see README.md).
	fmt.Printf("latency: p50 %.3f ms, p99 %.3f ms over %d requests\n", percentile(lats, 0.50), percentile(lats, 0.99), len(lats))
	res.Metrics = map[string]metric{
		"setup_s":          {median(boots), "s"},
		"pages_s":          {median(pagesS), "pages/s"},
		"p50_ms":           {percentile(lats, 0.50), "ms"},
		"cpu_ms_per_kpage": {median(cpuK), "ms/kpage"},
		"peak_rss_mb":      {float64(rss) / 1024, "MB"},
		"facts_correct":    {float64(facts), "facts"},
	}
	return res, nil
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	i := int(float64(len(sorted))*q+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
