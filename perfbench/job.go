package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"ceres"
	"ceres/batch"
	"ceres/internal/fsatomic"
	"ceres/internal/obs/trace"
	"ceres/pagestore"
)

// The traced harvest job is the ceres-batch path run inside the
// benchmark's own child process, so that the ledger can wrap the layers'
// interfaces. It makes the calls cmd/ceres-batch's main makes, with that
// command's defaults: open the pagestore, read kb.tsv, open the model
// store and registry, run one batch.Runner job (64-page shards, 4
// workers, 200 training pages, threshold 0.5, fusion on) and write
// fused.jsonl. Untraced jobs run the ceres-batch command itself (see
// runBatch).
var defaultJob = batch.Job{ShardPages: 64, Workers: 4, TrainPages: 200, Fuse: true}

// jobReport is a job's outcome: read from ceres-batch's stats.json, or
// printed by the traced child as its one line of output.
type jobReport struct {
	// RunNs is batch.Report.Elapsed: planning and every shard, without
	// the fusion that follows.
	RunNs int64
	// RunCPUNs is the traced child's CPU time once fused.jsonl is
	// written, before its ledger work.
	RunCPUNs int64
	Pages    int
	Triples  int
	Shards   int
	Facts    int
	Served   []string // sites extracted with a model
	Skipped  []string // sites recorded as untrainable
	Failed   []string // sites whose extraction failed
	Trained  int
	Stages   batch.StageDurations
	Ledger   *jobLedger `json:",omitempty"`
}

// addSites sorts a job's per-site outcomes into served, skipped and
// failed sites.
func (r *jobReport) addSites(sites []batch.SiteReport) {
	for _, sr := range sites {
		switch {
		case sr.Skipped:
			r.Skipped = append(r.Skipped, sr.Site)
		case sr.Err != "":
			r.Failed = append(r.Failed, sr.Site)
		default:
			r.Served = append(r.Served, sr.Site)
		}
		if sr.Trained {
			r.Trained++
		}
	}
}

// jobLedger is the traced job's per-layer account. Times are in
// nanoseconds and worker-summed where the layer runs on several workers.
type jobLedger struct {
	KBReadNs, KBIndexNs int64

	PublishNs, Publishes int64

	ReadCalls, ReadNs, ReadCallbackNs int64 // PagesBytes and Pages
	SegmentBytes                      int64
	StoredPages                       int64

	SinkNs, SinkShards int64
	ReplayNs           int64 // Replay minus its callback: shard read + JSON decode
	ObserveNs          int64 // inside Replay's callback

	TrainSites                                  int64
	TrainParseNs, TrainClusterNs, TrainAnnotate int64
	TrainFitNs                                  int64
	TrainDirectNs                               int64 // Pipeline.Train timed directly per site
	AllocBytes, Mallocs, GCCycles               uint64
}

// jobMain is the traced child: one harvest job over dir with every
// layer's interface wrapped, followed by the ledger work.
func jobMain(dir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	led := &jobLedger{}
	rep := &jobReport{Ledger: led}

	store, err := pagestore.Open(filepath.Join(dir, "pages"))
	if err != nil {
		return err
	}
	kbStart := time.Now()
	kbPath := filepath.Join(dir, "kb.tsv")
	kbFile, err := os.Open(kbPath)
	if err != nil {
		return err
	}
	kb, err := ceres.ReadKB(kbFile)
	kbFile.Close()
	if err != nil {
		return fmt.Errorf("reading seed KB: %w", err)
	}
	led.KBReadNs = int64(time.Since(kbStart))
	pipeline := ceres.NewPipeline(kb, ceres.WithThreshold(servedThreshold))
	dirStore, err := ceres.NewDirStore(filepath.Join(dir, "models"))
	if err != nil {
		return err
	}
	timed := &timedStore{ModelStore: dirStore}
	registry, err := ceres.OpenRegistry(ctx, timed)
	if err != nil {
		return err
	}
	jsonl, err := batch.NewJSONLSink(filepath.Join(dir, "triples"))
	if err != nil {
		return err
	}

	tracer := ceres.NewTracer(ceres.TracerOptions{SampleEvery: 1, Capacity: 1 << 14})
	runner, err := batch.NewRunner(batch.Config{
		Provider:       &timedProvider{Store: store, led: led},
		Sink:           &timedSink{JSONLSink: jsonl, led: led},
		Registry:       registry,
		Store:          timed,
		Pipeline:       pipeline,
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		Tracer:         tracer,
	})
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	report, err := runner.Run(ctx, defaultJob)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	led.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	led.Mallocs = ms1.Mallocs - ms0.Mallocs
	led.GCCycles = uint64(ms1.NumGC - ms0.NumGC)
	if err := writeFused(filepath.Join(dir, "fused.jsonl"), report.Facts); err != nil {
		return err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	rep.RunCPUNs = ru.Utime.Nano() + ru.Stime.Nano()

	rep.RunNs = int64(report.Elapsed)
	rep.Pages, rep.Triples, rep.Shards, rep.Facts = report.Pages, report.Triples, report.Shards, len(report.Facts)
	rep.Stages = report.Stages
	rep.addSites(report.Sites)
	led.PublishNs, led.Publishes = timed.publishNs.Load(), timed.publishes.Load()
	if err := ledgerAfterJob(ctx, led, tracer, store, kbPath, report); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// ledgerAfterJob completes the traced job's ledger: training stage self
// times from the batch tracer's span trees, segment sizes, a fresh
// KB.BuildIndex, and the direct Pipeline.Train cross-check.
func ledgerAfterJob(ctx context.Context, led *jobLedger, tracer *ceres.Tracer, store *pagestore.Store, kbPath string, report *batch.Report) error {
	for _, root := range tracer.Roots() {
		trainSpans(root.JSON(), led)
	}
	for _, sr := range report.Sites {
		info, err := store.Info(sr.Site)
		if err != nil {
			return err
		}
		for _, seg := range info.Segments {
			led.SegmentBytes += seg.Bytes
		}
		led.StoredPages += int64(info.Pages)
	}
	f, err := os.Open(kbPath)
	if err != nil {
		return err
	}
	kb, err := ceres.ReadKB(f)
	f.Close()
	if err != nil {
		return err
	}
	t := time.Now()
	kb.BuildIndex()
	led.KBIndexNs = int64(time.Since(t))

	// Cross-check the span-derived training cost: train every attempted
	// site again, directly, on its training prefix.
	if led.TrainSites == 0 {
		return nil
	}
	pipeline := ceres.NewPipeline(kb, ceres.WithThreshold(servedThreshold))
	for _, sr := range report.Sites {
		if !sr.Trained && !sr.Skipped {
			continue
		}
		pages, err := store.ReadAll(ctx, sr.Site, 0, defaultJob.TrainPages)
		if err != nil {
			return err
		}
		t := time.Now()
		_, err = pipeline.Train(ctx, pages)
		led.TrainDirectNs += int64(time.Since(t))
		if err != nil && ctx.Err() != nil {
			return err
		}
	}
	return nil
}

// trainSpans adds the self times of a shard trace's training stages:
// batch.shard → resolve → train → parse, cluster, annotate (its topics
// child included), fit.
func trainSpans(s trace.SpanJSON, led *jobLedger) {
	if s.Name == "train" {
		led.TrainSites++
		for _, c := range s.Children {
			self := selfNs(c)
			switch c.Name {
			case "parse":
				led.TrainParseNs += self
			case "cluster":
				led.TrainClusterNs += self
			case "annotate":
				for _, cc := range c.Children {
					if cc.Name == "topics" {
						self += cc.DurNs
					}
				}
				led.TrainAnnotate += self
			case "fit":
				led.TrainFitNs += self
			}
		}
		return
	}
	for _, c := range s.Children {
		trainSpans(c, led)
	}
}

// selfNs is a span's duration minus its children's.
func selfNs(s trace.SpanJSON) int64 {
	d := s.DurNs
	for _, c := range s.Children {
		d -= c.DurNs
	}
	return d
}

// writeFused writes the fused facts as cmd/ceres-batch does: one JSON
// object per line, committed atomically.
func writeFused(path string, facts []ceres.FusedFact) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, fact := range facts {
		if err := enc.Encode(fact); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
	}
	return fsatomic.Commit(f, path)
}

// timedStore times a ModelStore's loads (Open, Latest) and publishes
// (binary encode + atomic write).
type timedStore struct {
	ceres.ModelStore
	openNs, opens, publishNs, publishes atomic.Int64
}

func (s *timedStore) Open(site string, v int) (*ceres.SiteModel, error) {
	t := time.Now()
	m, err := s.ModelStore.Open(site, v)
	s.openNs.Add(int64(time.Since(t)))
	s.opens.Add(1)
	return m, err
}

func (s *timedStore) Latest(site string) (*ceres.SiteModel, int, error) {
	t := time.Now()
	m, v, err := s.ModelStore.Latest(site)
	s.openNs.Add(int64(time.Since(t)))
	s.opens.Add(1)
	return m, v, err
}

func (s *timedStore) Publish(site string, m *ceres.SiteModel) (int, error) {
	t := time.Now()
	v, err := s.ModelStore.Publish(site, m)
	s.publishNs.Add(int64(time.Since(t)))
	s.publishes.Add(1)
	return v, err
}

// timedProvider times the pagestore reads. It implements
// batch.RawPageProvider like the store it wraps, so the runner stays on
// the byte path. A read's self time is the call's time minus the time
// spent inside its callback.
type timedProvider struct {
	*pagestore.Store
	led *jobLedger
}

func (p *timedProvider) Pages(ctx context.Context, site string, start, n int, fn func(ceres.PageSource) error) error {
	var inside int64
	t := time.Now()
	err := p.Store.Pages(ctx, site, start, n, func(pg ceres.PageSource) error {
		c := time.Now()
		err := fn(pg)
		inside += int64(time.Since(c))
		return err
	})
	p.account(int64(time.Since(t)), inside)
	return err
}

func (p *timedProvider) PagesBytes(ctx context.Context, site string, start, n int, fn func(id, html []byte) error) error {
	var inside int64
	t := time.Now()
	err := p.Store.PagesBytes(ctx, site, start, n, func(id, html []byte) error {
		c := time.Now()
		err := fn(id, html)
		inside += int64(time.Since(c))
		return err
	})
	p.account(int64(time.Since(t)), inside)
	return err
}

func (p *timedProvider) account(total, inside int64) {
	atomic.AddInt64(&p.led.ReadCalls, 1)
	atomic.AddInt64(&p.led.ReadNs, total-inside)
	atomic.AddInt64(&p.led.ReadCallbackNs, inside)
}

var _ batch.RawPageProvider = (*timedProvider)(nil)

// timedSink times the shard writers and the fusion replay. It implements
// batch.Replayer like the JSONL sink it wraps, so fusion still runs.
type timedSink struct {
	*batch.JSONLSink
	led *jobLedger
}

func (s *timedSink) OpenShard(sh batch.Shard) (batch.ShardWriter, error) {
	t := time.Now()
	w, err := s.JSONLSink.OpenShard(sh)
	atomic.AddInt64(&s.led.SinkNs, int64(time.Since(t)))
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&s.led.SinkShards, 1)
	return &timedShard{ShardWriter: w, led: s.led}, nil
}

func (s *timedSink) Replay(shards []batch.Shard, fn func(site string, t ceres.Triple) error) error {
	var inside int64
	t := time.Now()
	err := s.JSONLSink.Replay(shards, func(site string, tr ceres.Triple) error {
		c := time.Now()
		err := fn(site, tr)
		inside += int64(time.Since(c))
		return err
	})
	s.led.ReplayNs += int64(time.Since(t)) - inside
	s.led.ObserveNs += inside
	return err
}

var _ batch.Replayer = (*timedSink)(nil)

type timedShard struct {
	batch.ShardWriter
	led *jobLedger
}

func (w *timedShard) Write(t ceres.Triple) error {
	s := time.Now()
	err := w.ShardWriter.Write(t)
	atomic.AddInt64(&w.led.SinkNs, int64(time.Since(s)))
	return err
}

func (w *timedShard) Commit() error {
	s := time.Now()
	err := w.ShardWriter.Commit()
	atomic.AddInt64(&w.led.SinkNs, int64(time.Since(s)))
	return err
}

// readJobReport parses a child's output.
func readJobReport(out []byte) (*jobReport, error) {
	var rep jobReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, errors.New("harvest job printed no report: " + err.Error())
	}
	return &rep, nil
}
