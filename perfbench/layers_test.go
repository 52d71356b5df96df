package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestLayerMetricsMatchBenchmarkJSON keeps the traced run's output and
// BENCHMARK.json's per_layer list in step: the same names, units and
// order, and every figure measured (non-zero) from non-zero inputs.
func TestLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	led := &jobLedger{KBReadNs: 1, KBIndexNs: 1, PublishNs: 1, Publishes: 1, ReadCalls: 1, ReadNs: 1,
		ReadCallbackNs: 1, SegmentBytes: 1, StoredPages: 1, SinkNs: 1, SinkShards: 1, ReplayNs: 1,
		ObserveNs: 1, TrainSites: 1, TrainParseNs: 1, TrainClusterNs: 1, TrainAnnotate: 1,
		TrainFitNs: 1, TrainDirectNs: 1, AllocBytes: 1, Mallocs: 1, GCCycles: 1}
	job := &jobRun{rep: &jobReport{Pages: 1, Triples: 1, Shards: 1, Facts: 1, Ledger: led}}
	job.rep.Stages.Parse, job.rep.Stages.Route, job.rep.Stages.Score = 1, 1, 1
	job.rep.Stages.Checkpoint, job.rep.Stages.Train = 1, 1
	sl := &serveLedger{bootNs: 1, openNs: 1, opens: 1, sites: 1, modelBytes: 1, replayPages: 1,
		allocs: 1, allocBytes: 1, requests: 1, pages: 1, wireNs: 1, reqBytes: 1, respBytes: 1,
		admissionNs: 1, lookupNs: 1, fuseNs: 1, parseNs: 1, routeNs: 1, scoreNs: 1}
	for _, daemonStages := range []bool{true, false} {
		layers := layerMetrics(job, job, sl, daemonStages)
		if len(layers) != len(spec.PerLayer) {
			t.Fatalf("traced run reports %d layers, BENCHMARK.json lists %d", len(layers), len(spec.PerLayer))
		}
		for i, l := range layers {
			if l.name != spec.PerLayer[i].Name || l.unit != spec.PerLayer[i].Unit {
				t.Errorf("layer %d: traced run reports %s [%s], BENCHMARK.json lists %s [%s]",
					i, l.name, l.unit, spec.PerLayer[i].Name, spec.PerLayer[i].Unit)
			}
			if l.value <= 0 {
				t.Errorf("layer %s reads %v from non-zero inputs", l.name, l.value)
			}
		}
	}
}
