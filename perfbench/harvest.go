package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"ceres"
	"ceres/batch"
)

// setupsPerRun is how many no-op ceres-batch invocations a harvest run
// times for setup_s.
const setupsPerRun = 41

// jobRun is one harvest job as the parent saw it.
type jobRun struct {
	rep    *jobReport
	wall   time.Duration // exec to exit
	cpu    time.Duration // user + system CPU of the job process
	sys    time.Duration // system CPU of the job process
	verify time.Duration // checking its output, after it ended
	same   bool          // its output bytes equal a fully checked job's
	rssKB  int64         // the job process's peak RSS
	facts  int           // distinct correct facts in its committed output
	failed int           // sites whose extraction failed
}

// runProcess runs one job process to its end and records its wall time,
// CPU time and peak RSS.
func runProcess(cmd *exec.Cmd) (*jobRun, error) {
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	jr := &jobRun{wall: time.Since(start)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && ru != nil {
		jr.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		jr.sys = time.Duration(ru.Stime.Nano())
		jr.rssKB = ru.Maxrss
	}
	return jr, err
}

// runBatch runs the ceres-batch command over a harvest directory, as a
// user runs it, and reads the job's outcome from the stats.json it
// writes. The command exits non-zero when a site's extraction failed,
// after writing stats.json; such a job is counted, not dropped.
func runBatch(ctx context.Context, e *env, dir string, args ...string) (*jobRun, error) {
	statsPath := filepath.Join(dir, "stats.json")
	if err := os.Remove(statsPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, e.batchBin, append([]string{"-dir", dir}, args...)...)
	jr, runErr := runProcess(cmd)
	b, err := os.ReadFile(statsPath)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("ceres-batch over %s: %w", dir, runErr)
		}
		return nil, err
	}
	var st struct {
		Sites                         []batch.SiteReport
		Pages, Triples, Shards, Facts int
		ElapsedNs                     int64
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("ceres-batch stats.json: %w", err)
	}
	jr.rep = &jobReport{RunNs: st.ElapsedNs, Pages: st.Pages, Triples: st.Triples, Shards: st.Shards, Facts: st.Facts}
	jr.rep.addSites(st.Sites)
	jr.failed = len(jr.rep.Failed)
	if runErr != nil && jr.failed == 0 {
		return nil, fmt.Errorf("ceres-batch over %s: %w", dir, runErr)
	}
	return jr, nil
}

// runTracedJob runs one job in the benchmark's traced child process (see
// job.go), which prints its report and ledger as JSON.
func runTracedJob(ctx context.Context, e *env, dir string) (*jobRun, error) {
	cmd := exec.CommandContext(ctx, e.selfBin, "-job", dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	jr, err := runProcess(cmd)
	if err != nil {
		return nil, fmt.Errorf("traced harvest job over %s: %w", dir, err)
	}
	if jr.rep, err = readJobReport(out.Bytes()); err != nil {
		return nil, err
	}
	jr.failed = len(jr.rep.Failed)
	return jr, nil
}

// freshJob runs one harvest job with a fresh checkpoint and triples
// directory (with cold, also an empty model store) and verifies its
// output against checked. Untraced jobs are the ceres-batch command;
// traced ones the benchmark's ledger child.
func freshJob(ctx context.Context, e *env, in *inputs, dir string, cold, traced bool, checked *checkedOutput) (*jobRun, error) {
	if err := resetJob(dir, cold); err != nil {
		return nil, err
	}
	var jr *jobRun
	var err error
	if traced {
		jr, err = runTracedJob(ctx, e, dir)
	} else {
		jr, err = runBatch(ctx, e, dir)
	}
	if err != nil {
		return nil, err
	}
	t := time.Now()
	jr.same, err = checked.verify(dir, in, jr)
	jr.verify = time.Since(t)
	return jr, err
}

// checkedOutput remembers the last job output that passed every check: a
// digest of its committed shard files and fused.jsonl, and its count of
// correct facts. A later job whose output has the same digest wrote the
// same bytes, so every check on those bytes finds the same; only the
// model store is checked again. Any other output is checked in full.
type checkedOutput struct {
	digest []byte
	facts  int
}

// verify checks a finished job's output and reports whether it was found
// identical to the remembered one.
func (c *checkedOutput) verify(dir string, in *inputs, jr *jobRun) (bool, error) {
	d, err := outputDigest(dir)
	if err != nil {
		return false, err
	}
	if c.digest != nil && bytes.Equal(c.digest, d) {
		jr.facts = c.facts
		stored, err := storedSites(dir)
		if err != nil {
			return true, err
		}
		return true, checkPublished(jr.rep.Served, stored)
	}
	if err := verifyJob(dir, in, jr); err != nil {
		return false, err
	}
	c.digest, c.facts = d, jr.facts
	return false, nil
}

// outputDigest hashes the names and bytes of a job's committed shard
// files and of fused.jsonl.
func outputDigest(dir string) ([]byte, error) {
	h := sha256.New()
	add := func(name string) error {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(b))
		h.Write(b)
		return nil
	}
	ents, err := os.ReadDir(filepath.Join(dir, "triples"))
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		if name := ent.Name(); !strings.HasPrefix(name, ".") && strings.HasSuffix(name, ".jsonl") {
			if err := add(filepath.Join("triples", name)); err != nil {
				return nil, err
			}
		}
	}
	if err := add("fused.jsonl"); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// setupOnce times one ceres-batch invocation that has nothing left to do:
// the checkpoint of the job just run holds every shard, so the command
// opens the pagestore, reads the seed KB, opens the model store and
// registry, plans the job, finds every shard done and writes its report.
// Fusion is off, so no shard is read back. With cold the model store is
// emptied first, so the registry boots over an empty store as a cold job
// does. That is the fixed cost of a ceres-batch invocation.
func setupOnce(ctx context.Context, e *env, dir string, cold bool) (time.Duration, error) {
	if cold {
		if err := os.RemoveAll(filepath.Join(dir, "models")); err != nil {
			return 0, err
		}
	}
	jr, err := runBatch(ctx, e, dir, "-fuse=false")
	if err != nil {
		return 0, err
	}
	if jr.rep.Shards != 0 || jr.rep.Pages != 0 {
		return 0, fmt.Errorf("set-up invocation executed %d shards, want none", jr.rep.Shards)
	}
	return jr.wall, nil
}

// resetJob gives the next job a fresh checkpoint and triples directory,
// and with cold an empty model store.
func resetJob(dir string, cold bool) error {
	for _, name := range []string{"checkpoint.json", "triples", "fused.jsonl"} {
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	if cold {
		return os.RemoveAll(filepath.Join(dir, "models"))
	}
	return nil
}

// storedSites lists the sites the harvest directory's model store holds.
func storedSites(dir string) ([]string, error) {
	ds, err := ceres.NewDirStore(filepath.Join(dir, "models"))
	if err != nil {
		return nil, err
	}
	ents, err := ds.List()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if len(e.Versions) > 0 {
			out = append(out, e.Site)
		}
	}
	return out, nil
}

// verifyJob checks a finished job's output against the gold facts and
// returns its count of correct facts: the committed shard triples are
// scored and thresholded, fused.jsonl must equal the benchmark's own
// fusion of them, and every served site must have a stored model.
func verifyJob(dir string, in *inputs, jr *jobRun) error {
	if jr.rep.Pages == 0 {
		return failCheck("pages", "the job extracted no pages")
	}
	triples, err := readShardTriples(filepath.Join(dir, "triples"))
	if err != nil {
		return err
	}
	score := newFactScore(in.gold)
	for _, t := range triples {
		if t.Confidence < servedThreshold {
			return failCheck("threshold", "%s: shard triple on page %s has confidence %v below %v", t.Site, t.Page, t.Confidence, servedThreshold)
		}
		score.add(t.Site, t.wireTriple)
	}
	if err := score.check(); err != nil {
		return err
	}
	jr.facts = len(score.correct)
	fused, err := readFused(filepath.Join(dir, "fused.jsonl"))
	if err != nil {
		return err
	}
	if err := checkFused(triples, fused); err != nil {
		return err
	}
	stored, err := storedSites(dir)
	if err != nil {
		return err
	}
	return checkPublished(jr.rep.Served, stored)
}

// readShardTriples reads every committed shard file
// (<escaped-site>.<index>.jsonl) of a JSONL sink directory.
func readShardTriples(dir string) ([]siteTriple, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []siteTriple
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		base := strings.TrimSuffix(name, ".jsonl")
		dot := strings.LastIndexByte(base, '.')
		if dot < 0 {
			return nil, fmt.Errorf("unexpected shard file %s", name)
		}
		site, err := url.PathUnescape(base[:dot])
		if err != nil {
			return nil, fmt.Errorf("shard file %s: %w", name, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var t wireTriple
			if err := json.Unmarshal(sc.Bytes(), &t); err != nil {
				return nil, fmt.Errorf("shard file %s: %w", name, err)
			}
			out = append(out, siteTriple{Site: site, wireTriple: t})
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func readFused(path string) ([]fusedFact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	var out []fusedFact
	for {
		var ff fusedFact
		if err := dec.Decode(&ff); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, fmt.Errorf("reading fused.jsonl: %w", err)
		}
		out = append(out, ff)
	}
}

// runHarvest runs harvest-warm (cold false) or harvest-cold. The crawl is
// written once. harvest-warm then runs one cold job to fill the model
// store and one untimed warm-up job; harvest-cold makes no warm-up job,
// since each job is a fresh process over an empty store and the crawl it
// reads was just written. Timed jobs follow until the timed time reaches
// --seconds, at least two of them. Each job is verified after it ends,
// outside the timed window.
func runHarvest(ctx context.Context, e *env, in *inputs, cold bool) (*result, error) {
	dir := filepath.Join(e.work, "harvest")
	if _, err := in.writeStore(dir, nil); err != nil {
		return nil, err
	}
	if e.trace {
		return traceHarvest(ctx, e, in, dir, cold)
	}
	var checked checkedOutput
	job := func() (*jobRun, error) { return freshJob(ctx, e, in, dir, cold, false, &checked) }
	var first *jobRun
	if !cold {
		// The first job finds the store empty and fills it; the second is
		// the warm-up.
		for i := 0; i < 2; i++ {
			var err error
			if first, err = job(); err != nil {
				return nil, err
			}
		}
	}
	var runs []*jobRun
	var timed time.Duration
	for timed.Seconds() < e.seconds || len(runs) < 2 {
		jr, err := job()
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = jr
		}
		if err := checkSameFacts(first.facts, jr.facts); err != nil {
			return nil, err
		}
		runs = append(runs, jr)
		timed += jr.wall
		fmt.Fprintf(os.Stderr, "job %d: %.1f ms wall, %.1f ms planning and extracting before fusion, %.1f ms CPU (%.1f ms system), %d pages; checked in %.0f ms (same bytes as a fully checked job: %v)\n",
			len(runs), jr.wall.Seconds()*1000, time.Duration(jr.rep.RunNs).Seconds()*1000, jr.cpu.Seconds()*1000, jr.sys.Seconds()*1000, jr.rep.Pages, jr.verify.Seconds()*1000, jr.same)
	}
	// Set-up is timed last, over the checkpoint of the last timed job.
	var setups []float64
	for len(setups) < setupsPerRun {
		d, err := setupOnce(ctx, e, dir, cold)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	printSetups("no-op ceres-batch invocations", setups)

	var pagesS, cpu, rss, lat []float64
	res := &result{Correct: true}
	for _, jr := range runs {
		pages := float64(jr.rep.Pages)
		pagesS = append(pagesS, pages/jr.wall.Seconds())
		cpu = append(cpu, jr.cpu.Seconds()*1e6/pages)
		rss = append(rss, float64(jr.rssKB)/1024)
		lat = append(lat, float64(jr.wall.Microseconds())/1000)
		// One operation per job and one per site it harvested.
		sites := len(jr.rep.Served) + len(jr.rep.Skipped) + len(jr.rep.Failed)
		res.Attempted += 1 + sites
		res.Failed += jr.failed
	}
	last := runs[len(runs)-1].rep
	fmt.Printf("operations: %d jobs, %d site harvests attempted, %d failed; per job %d sites served, %d skipped as untrainable, %d pages, %d triples, %d fused facts\n",
		len(runs), res.Attempted-len(runs), res.Failed, len(last.Served), len(last.Skipped), last.Pages, last.Triples, last.Facts)
	res.Metrics = map[string]metric{
		"setup_s":          {median(setups), "s"},
		"pages_s":          {median(pagesS), "pages/s"},
		"p50_ms":           {median(lat), "ms"},
		"cpu_ms_per_kpage": {median(cpu), "ms/kpage"},
		"peak_rss_mb":      {median(rss), "MB"},
		"facts_correct":    {float64(first.facts), "facts"},
	}
	return res, nil
}

// printSetups reports the spread of a run's set-up timings on stderr.
func printSetups(what string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	fmt.Fprintf(os.Stderr, "set-up: %d %s, min %.2f ms, q1 %.2f, median %.2f, q3 %.2f, max %.2f\n",
		len(xs), what, slices.Min(xs)*1000, q1*1000, med*1000, q3*1000, slices.Max(xs)*1000)
}

// median is the middle quartile, as in the spread report.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
