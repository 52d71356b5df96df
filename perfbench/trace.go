package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ceres"
	"ceres/internal/obs/trace"
)

// The traced run splits a workload's time into layers. It times calls
// into each layer's public functions from the benchmark's own code —
// wrappers around the page provider, triple sink and model store, and
// direct calls to ceres.OpenRegistry, ceres.ReadKB, KB.BuildIndex,
// Pipeline.Train and Service.Extract — and reads the spans the program
// already emits (ceres-serve -trace-sample 1 with GET /debug/traces, and
// batch.Config.Tracer). A layer's figure is its self time: its span or
// call minus its children.

// traceBatch is how many sequential requests the traced serve pass sends
// between two reads of /debug/traces; the daemon retains the last 64
// request traces, so a batch must stay below that.
const traceBatch = 32

// serveLedger is the serve side of the layer ledger.
type serveLedger struct {
	bootNs, openNs, opens int64
	sites                 int
	modelBytes            int64

	replayPages        int
	allocs, allocBytes uint64
	replayGC           uint32

	// The traced daemon pass: one client, so request i is the i-th trace.
	requests, pages               int
	wireNs, reqBytes, respBytes   int64
	admissionNs, lookupNs, fuseNs int64
	parseNs, routeNs, scoreNs     int64
	untracedLatNs, tracedLatNs    int64
	untracedPages                 int
	failed                        int
}

// runServeLedger measures the serve-side layers over a model store: a
// timed registry boot, an in-process Service.Extract replay of the
// request set for allocations, and one untraced and one traced
// single-client daemon pass.
func runServeLedger(ctx context.Context, e *env, in *inputs, storeDir string, probe request, reqs []request) (*serveLedger, error) {
	sl := &serveLedger{}
	ds, err := ceres.NewDirStore(storeDir)
	if err != nil {
		return nil, err
	}
	ts := &timedStore{ModelStore: ds}
	t := time.Now()
	reg, err := ceres.OpenRegistry(ctx, ts)
	if err != nil {
		return nil, err
	}
	sl.bootNs = int64(time.Since(t))
	sl.openNs, sl.opens, sl.sites = ts.openNs.Load(), ts.opens.Load(), reg.Len()
	err = filepath.WalkDir(storeDir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, ".bin") {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		sl.modelBytes += info.Size()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// In-process replay: one warm-up round, then one measured round.
	svc := ceres.NewService(reg)
	ereqs := make([]ceres.ExtractRequest, len(reqs))
	for i, r := range reqs {
		pages := make([]ceres.PageSource, len(r.pages))
		for j, p := range r.pages {
			pages[j] = ceres.PageSource{ID: p.ID, HTML: p.HTML}
		}
		ereqs[i] = ceres.ExtractRequest{Site: r.site, Pages: pages}
		sl.replayPages += len(pages)
	}
	var ms0, ms1 runtime.MemStats
	for round := 0; round < 2; round++ {
		if round == 1 {
			runtime.ReadMemStats(&ms0)
		}
		for _, r := range ereqs {
			if _, err := svc.Extract(ctx, r); err != nil {
				return nil, fmt.Errorf("in-process replay: %w", err)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	sl.allocs = ms1.Mallocs - ms0.Mallocs
	sl.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	sl.replayGC = ms1.NumGC - ms0.NumGC

	clients := newClients(1)
	defer closeClients(clients)
	// Untraced reference pass, for the tracing overhead.
	d, err := startDaemon(ctx, e, storeDir, false, probe)
	if err != nil {
		return nil, err
	}
	results, _, err := runPass(ctx, clients, d.addr, reqs)
	if err == nil {
		results, _, err = runPass(ctx, clients, d.addr, reqs)
	}
	d.stop()
	if err != nil {
		return nil, err
	}
	if _, sl.untracedPages, sl.failed, err = verifyPass(in, reqs, results); err != nil {
		return nil, err
	}
	for _, r := range results {
		sl.untracedLatNs += int64(r.lat)
	}
	closeClients(clients)

	// Traced pass: every request is traced; its root span is read back
	// after each batch of traceBatch requests.
	d, err = startDaemon(ctx, e, storeDir, true, probe)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if _, _, err := runPass(ctx, clients, d.addr, reqs); err != nil {
		return nil, err
	}
	all := make([]reqResult, 0, len(reqs))
	for from := 0; from < len(reqs); from += traceBatch {
		batch := reqs[from:min(from+traceBatch, len(reqs))]
		results, _, err := runPass(ctx, clients, d.addr, batch)
		if err != nil {
			return nil, err
		}
		roots, err := fetchTraces(ctx, d.addr)
		if err != nil {
			return nil, err
		}
		if len(roots) < len(batch) {
			return nil, fmt.Errorf("daemon retained %d traces, want %d", len(roots), len(batch))
		}
		roots = roots[len(roots)-len(batch):]
		for i, r := range results {
			root := roots[i]
			if root.Name != "service.extract" {
				return nil, fmt.Errorf("unexpected trace root %q", root.Name)
			}
			sl.requests++
			sl.pages += len(batch[i].pages)
			sl.tracedLatNs += int64(r.lat)
			sl.wireNs += int64(r.lat) - root.DurNs
			sl.reqBytes += int64(len(batch[i].body))
			sl.respBytes += int64(len(r.body))
			for _, c := range root.Children {
				switch c.Name {
				case "admission":
					sl.admissionNs += c.DurNs
				case "lookup":
					sl.lookupNs += c.DurNs
				case "fuse":
					sl.fuseNs += c.DurNs
				case "extract":
					for _, s := range c.Children {
						switch s.Name {
						case "parse":
							sl.parseNs += s.DurNs
						case "route":
							sl.routeNs += s.DurNs
						case "score":
							sl.scoreNs += s.DurNs
						}
					}
				}
			}
		}
		all = append(all, results...)
	}
	_, _, failed, err := verifyPass(in, reqs, all)
	sl.failed += failed
	return sl, err
}

// fetchTraces reads the daemon's retained request traces, oldest first.
func fetchTraces(ctx context.Context, addr string) ([]trace.SpanJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/debug/traces", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/traces: %s", resp.Status)
	}
	var out []trace.SpanJSON
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var s trace.SpanJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("decoding trace: %w", err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// layer is one per-layer metric with the count its ratio is taken over.
type layer struct {
	name, unit string
	value      float64
	basis      string
}

// layerMetrics assembles the per-layer figures. job is the traced
// workload job (or, for serve-http, the traced training job that built
// its models), train the traced job that trained the models, sl the
// serve-side ledger. With daemonStages the core.* stages come from the
// daemon's spans, otherwise from the job's batch.Report.Stages.
func layerMetrics(job, train *jobRun, sl *serveLedger, daemonStages bool) []layer {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	perK := func(ns int64, pages int) float64 { return ms(ns) / float64(pages) * 1000 }
	jl, tl := job.rep.Ledger, train.rep.Ledger
	pages := job.rep.Pages
	jobBasis := fmt.Sprintf("%d pages extracted by the job", pages)
	reqBasis := fmt.Sprintf("%d traced requests, %d pages", sl.requests, sl.pages)
	trainBasis := fmt.Sprintf("%d sites attempted", tl.TrainSites)
	out := []layer{
		{"ceres-serve.wire_ms_per_kpage", "ms/kpage", perK(sl.wireNs, sl.pages), reqBasis},
		{"ceres-serve.req_kb_per_page", "KB/page", float64(sl.reqBytes) / 1024 / float64(sl.pages), reqBasis},
		{"ceres-serve.resp_kb_per_page", "KB/page", float64(sl.respBytes) / 1024 / float64(sl.pages), reqBasis},
		{"service.admission_us", "us/request", float64(sl.admissionNs) / 1e3 / float64(sl.requests), reqBasis},
		{"service.lookup_us", "us/request", float64(sl.lookupNs) / 1e3 / float64(sl.requests), reqBasis},
		{"service.tripleize_ms_per_kpage", "ms/kpage", perK(sl.fuseNs, sl.pages), reqBasis},
		{"service.allocs_per_page", "allocs/page", float64(sl.allocs) / float64(sl.replayPages), fmt.Sprintf("%d pages replayed in-process", sl.replayPages)},
		{"service.alloc_kb_per_page", "KB/page", float64(sl.allocBytes) / 1024 / float64(sl.replayPages), fmt.Sprintf("%d pages replayed in-process", sl.replayPages)},
		{"registry.boot_ms", "ms", ms(sl.bootNs), fmt.Sprintf("%d sites", sl.sites)},
		{"modelstore.open_ms_per_site", "ms/site", ms(sl.openNs) / float64(sl.opens), fmt.Sprintf("%d opens", sl.opens)},
		{"modelstore.publish_ms_per_site", "ms/site", ms(tl.PublishNs) / float64(tl.Publishes), fmt.Sprintf("%d publishes", tl.Publishes)},
		{"binmodel.model_kb_per_site", "KB/site", float64(sl.modelBytes) / 1024 / float64(sl.sites), fmt.Sprintf("%d sites", sl.sites)},
	}
	if daemonStages {
		out = append(out,
			layer{"core.parse_ms_per_kpage", "ms/kpage", perK(sl.parseNs, sl.pages), reqBasis},
			layer{"core.route_ms_per_kpage", "ms/kpage", perK(sl.routeNs, sl.pages), reqBasis},
			layer{"core.score_ms_per_kpage", "ms/kpage", perK(sl.scoreNs, sl.pages), reqBasis})
	} else {
		st := job.rep.Stages
		out = append(out,
			layer{"core.parse_ms_per_kpage", "ms/kpage", perK(int64(st.Parse), pages), jobBasis},
			layer{"core.route_ms_per_kpage", "ms/kpage", perK(int64(st.Route), pages), jobBasis},
			layer{"core.score_ms_per_kpage", "ms/kpage", perK(int64(st.Score), pages), jobBasis})
	}
	out = append(out,
		layer{"pagestore.read_ms_per_kpage", "ms/kpage", perK(jl.ReadNs, pages), fmt.Sprintf("%d reads, %s", jl.ReadCalls, jobBasis)},
		layer{"pagestore.segment_kb_per_page", "KB/page", float64(jl.SegmentBytes) / 1024 / float64(jl.StoredPages), fmt.Sprintf("%d stored pages", jl.StoredPages)},
		layer{"batch.extract_ms_per_kpage", "ms/kpage", perK(jl.ReadCallbackNs, pages), jobBasis},
		layer{"batch.sink_ms_per_kpage", "ms/kpage", perK(jl.SinkNs, pages), fmt.Sprintf("%d shards, %d triples, %s", jl.SinkShards, job.rep.Triples, jobBasis)},
		layer{"batch.checkpoint_ms", "ms/job", ms(int64(job.rep.Stages.Checkpoint)), fmt.Sprintf("%d shards", job.rep.Shards)},
		layer{"batch.alloc_kb_per_page", "KB/page", float64(jl.AllocBytes) / 1024 / float64(pages), fmt.Sprintf("%d allocs, %d GC cycles, %s", jl.Mallocs, jl.GCCycles, jobBasis)},
		layer{"fusion.replay_ms", "ms/job", ms(jl.ReplayNs), fmt.Sprintf("%d triples replayed", job.rep.Triples)},
		layer{"fusion.observe_ms", "ms/job", ms(jl.ObserveNs), fmt.Sprintf("%d fused facts", job.rep.Facts)},
		layer{"train.ms_per_site", "ms/site", ms(int64(train.rep.Stages.Train)) / float64(tl.TrainSites), fmt.Sprintf("%s, %d trained, %d skipped", trainBasis, train.rep.Trained, len(train.rep.Skipped))},
		layer{"train.parse_ms_per_site", "ms/site", ms(tl.TrainParseNs) / float64(tl.TrainSites), trainBasis},
		layer{"train.cluster_ms_per_site", "ms/site", ms(tl.TrainClusterNs) / float64(tl.TrainSites), trainBasis},
		layer{"train.annotate_ms_per_site", "ms/site", ms(tl.TrainAnnotate) / float64(tl.TrainSites), trainBasis},
		layer{"train.fit_ms_per_site", "ms/site", ms(tl.TrainFitNs) / float64(tl.TrainSites), trainBasis},
		layer{"kb.read_ms", "ms", ms(jl.KBReadNs), "one seed KB"},
		layer{"kb.index_ms", "ms", ms(jl.KBIndexNs), "one seed KB"},
	)
	return out
}

// printLedger prints the per-layer table with its count bases, the
// tracing overhead, and the train cross-check, then returns the result.
func printLedger(layers []layer, train *jobRun, overhead []string, attempted, failed int) *result {
	fmt.Println("per-layer ledger (traced run):")
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, l := range layers {
		fmt.Printf("  %-32s %12.4f %-12s %s\n", l.name, l.value, l.unit, l.basis)
		res.Metrics[l.name] = metric{l.value, l.unit}
	}
	tl := train.rep.Ledger
	fmt.Printf("train cross-check: Pipeline.Train timed directly %.1f ms/site vs %.1f ms/site from batch.Report.Stages.Train over %d sites\n",
		float64(tl.TrainDirectNs)/1e6/float64(tl.TrainSites), float64(train.rep.Stages.Train)/1e6/float64(tl.TrainSites), tl.TrainSites)
	for _, o := range overhead {
		fmt.Println("tracing overhead:", o)
	}
	return res
}

func overheadLine(what string, untraced, traced float64) string {
	return fmt.Sprintf("%s %.4g untraced, %.4g traced (%+.1f%%)", what, untraced, traced, (traced/untraced-1)*100)
}

func serveOverhead(sl *serveLedger) string {
	un := float64(sl.untracedPages) / time.Duration(sl.untracedLatNs).Seconds()
	tr := float64(sl.pages) / time.Duration(sl.tracedLatNs).Seconds()
	return overheadLine("single-client daemon pages_s", un, tr)
}

// traceServe is serve-http's traced run: the training job ran traced, and
// the serve ledger covers the daemon.
func traceServe(ctx context.Context, e *env, in *inputs, storeDir string, prep *jobRun, probe request, reqs []request) (*result, error) {
	sl, err := runServeLedger(ctx, e, in, storeDir, probe, reqs)
	if err != nil {
		return nil, err
	}
	printBases(prep, sl)
	layers := layerMetrics(prep, prep, sl, true)
	return printLedger(layers, prep, []string{serveOverhead(sl)}, 2*len(reqs), sl.failed), nil
}

// traceHarvest is a harvest workload's traced run: one ceres-batch job
// for reference, one traced job, and the serve ledger over the model store
// the jobs produced. harvest-warm first trains its models with a traced
// cold job, which supplies the training layers.
func traceHarvest(ctx context.Context, e *env, in *inputs, dir string, cold bool) (*result, error) {
	var train *jobRun
	jobs := 0
	sites := 0
	failed := 0
	job := func(traced bool) (*jobRun, error) {
		jr, err := freshJob(ctx, e, in, dir, cold, traced, new(checkedOutput))
		if err != nil {
			return nil, err
		}
		jobs++
		sites += len(jr.rep.Served) + len(jr.rep.Skipped) + len(jr.rep.Failed)
		failed += jr.failed
		return jr, nil
	}
	if !cold {
		var err error
		if train, err = job(true); err != nil {
			return nil, err
		}
	}
	ref, err := job(false)
	if err != nil {
		return nil, err
	}
	tr, err := job(true)
	if err != nil {
		return nil, err
	}
	if cold {
		train = tr
	}
	reqs, err := in.buildRequests(tr.rep.Served, requestsPerPass)
	if err != nil {
		return nil, err
	}
	probe, err := in.probeRequest(tr.rep.Served)
	if err != nil {
		return nil, err
	}
	sl, err := runServeLedger(ctx, e, in, filepath.Join(dir, "models"), probe, reqs)
	if err != nil {
		return nil, err
	}
	printBases(tr, sl)
	// The reference job is the ceres-batch command; the traced child does
	// ledger work after fused.jsonl is written, so its CPU is taken there.
	pagesS := func(j *jobRun) float64 { return float64(j.rep.Pages) / time.Duration(j.rep.RunNs).Seconds() }
	cpuK := func(cpuNs int64, j *jobRun) float64 { return float64(cpuNs) / 1e3 / float64(j.rep.Pages) }
	overhead := []string{
		overheadLine("Runner pages_s before fusion", pagesS(ref), pagesS(tr)),
		overheadLine("job process cpu_ms_per_kpage (ceres-batch to exit, traced child to fused.jsonl)", cpuK(int64(ref.cpu), ref), cpuK(tr.rep.RunCPUNs, tr)),
		serveOverhead(sl),
	}
	layers := layerMetrics(tr, train, sl, false)
	return printLedger(layers, train, overhead, jobs+sites+2*len(reqs), failed+sl.failed), nil
}

// printBases prints the counts the per-layer ratios are taken over.
func printBases(job *jobRun, sl *serveLedger) {
	r := job.rep
	fmt.Printf("bases: job %d pages, %d triples, %d shards, %d fused facts, %d sites trained, %d skipped, %d served, %d GC cycles; %.0f ms of training (worker-summed)\n",
		r.Pages, r.Triples, r.Shards, r.Facts, r.Trained, len(r.Skipped), len(r.Served), r.Ledger.GCCycles, float64(r.Stages.Train)/1e6)
	fmt.Printf("bases: daemon %d traced requests, %d pages; in-process replay %d pages, %d GC cycles; registry %d sites\n",
		sl.requests, sl.pages, sl.replayPages, sl.replayGC, sl.sites)
	sort.Strings(r.Skipped)
	fmt.Printf("bases: skipped sites %s\n", strings.Join(r.Skipped, ", "))
}
