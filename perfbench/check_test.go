package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ceres/internal/websim"
)

// wantCheck asserts err is a failed check with the given name.
func wantCheck(t *testing.T, err error, name string) {
	t.Helper()
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want check %q to fail", err, name)
	}
	if ce.Name != name {
		t.Fatalf("check %q failed (%v), want check %q", ce.Name, err, name)
	}
}

func testGold() *goldIndex {
	return &goldIndex{
		facts: map[string]map[string]bool{
			"s.com/p1": {"directed_by\x00spike lee": true, "genre\x00drama": true},
			"s.com/p2": {"genre\x00comedy": true},
		},
		topic: map[string]string{"s.com/p1": "do the right thing", "s.com/p2": "she s gotta have it"},
	}
}

func goodResponse() (request, *wireResponse) {
	req := request{site: "s.com", pages: []*websim.Page{{ID: "p1"}, {ID: "p2"}}}
	resp := &wireResponse{Site: "s.com", Threshold: 0.5, Triples: []wireTriple{
		{Subject: "Do the Right Thing", Predicate: "directed_by", Object: "Spike Lee", Confidence: 0.9, Page: "p1", Path: "/a"},
		{Subject: "Do the Right Thing", Predicate: "genre", Object: "Drama", Confidence: 0.9, Page: "p1", Path: "/b"},
		{Subject: "She's Gotta Have It", Predicate: "genre", Object: "Comedy", Confidence: 0.7, Page: "p2", Path: "/b"},
	}}
	return req, resp
}

func TestCheckResponseAcceptsGoodReply(t *testing.T) {
	req, resp := goodResponse()
	if err := checkResponse(req, resp); err != nil {
		t.Fatal(err)
	}
	s := newFactScore(testGold())
	for _, tr := range resp.Triples {
		s.add(req.site, tr)
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	if len(s.correct) != 3 {
		t.Fatalf("correct facts = %d, want 3", len(s.correct))
	}
}

func TestCheckResponseRejectsForeignPage(t *testing.T) {
	req, resp := goodResponse()
	resp.Triples[2].Page = "p9"
	wantCheck(t, checkResponse(req, resp), "response-pages")
}

func TestCheckResponseRejectsLowConfidence(t *testing.T) {
	req, resp := goodResponse()
	resp.Triples[2].Confidence = 0.49
	wantCheck(t, checkResponse(req, resp), "threshold")
}

func TestCheckResponseRejectsOrder(t *testing.T) {
	req, resp := goodResponse()
	resp.Triples[0], resp.Triples[1] = resp.Triples[1], resp.Triples[0]
	wantCheck(t, checkResponse(req, resp), "canonical-order")
	req, resp = goodResponse()
	resp.Triples[1], resp.Triples[2] = resp.Triples[2], resp.Triples[1]
	wantCheck(t, checkResponse(req, resp), "canonical-order")
}

func TestCheckResponseRejectsWrongSite(t *testing.T) {
	req, resp := goodResponse()
	resp.Site = "other.com"
	wantCheck(t, checkResponse(req, resp), "response-site")
}

func TestFactScoreRejectsLowPrecision(t *testing.T) {
	s := newFactScore(testGold())
	s.add("s.com", wireTriple{Subject: "Do the Right Thing", Predicate: "genre", Object: "Drama", Page: "p1"})
	// A wrong value, and a right value credited to the wrong subject.
	s.add("s.com", wireTriple{Subject: "Do the Right Thing", Predicate: "genre", Object: "Horror", Page: "p1"})
	s.add("s.com", wireTriple{Subject: "Somebody Else", Predicate: "directed_by", Object: "Spike Lee", Page: "p1"})
	wantCheck(t, s.check(), "precision")
}

func TestFactScoreRejectsNoCorrectFacts(t *testing.T) {
	s := newFactScore(testGold())
	s.add("s.com", wireTriple{Subject: "Do the Right Thing", Predicate: "genre", Object: "Horror", Page: "p1"})
	wantCheck(t, s.check(), "facts_correct")
	wantCheck(t, newFactScore(testGold()).check(), "facts_correct")
	wantCheck(t, checkSameFacts(10, 9), "facts_correct")
	if err := checkSameFacts(10, 10); err != nil {
		t.Fatal(err)
	}
}

func shardTriples() []siteTriple {
	return []siteTriple{
		{"a.com", wireTriple{Subject: "Film", Predicate: "genre", Object: "Drama", Confidence: 0.8}},
		{"b.com", wireTriple{Subject: "film", Predicate: "genre", Object: "drama", Confidence: 0.6}},
		{"b.com", wireTriple{Subject: "Film", Predicate: "genre", Object: "Drama", Confidence: 0.9}},
		{"a.com", wireTriple{Subject: "Film", Predicate: "release_year", Object: "1989", Confidence: 1}},
	}
}

func goodFused() []fusedFact {
	return []fusedFact{
		{Subject: "Film", Predicate: "genre", Object: "Drama", Belief: 1 - (1-0.56)*(1-0.42)*(1-0.63), Sources: []string{"a.com", "b.com"}},
		{Subject: "Film", Predicate: "release_year", Object: "1989", Belief: 0.7, Sources: []string{"a.com"}},
	}
}

func TestCheckFusedAcceptsOwnGrouping(t *testing.T) {
	if err := checkFused(shardTriples(), goodFused()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFusedRejectsCorruption(t *testing.T) {
	for name, corrupt := range map[string]func([]fusedFact) []fusedFact{
		"missing fact": func(f []fusedFact) []fusedFact { return f[:1] },
		"extra fact": func(f []fusedFact) []fusedFact {
			return append(f, fusedFact{Subject: "X", Predicate: "genre", Object: "Y"})
		},
		"repeated fact": func(f []fusedFact) []fusedFact { f[1] = f[0]; return f },
		"belief":        func(f []fusedFact) []fusedFact { f[0].Belief += 0.01; return f },
		"sources":       func(f []fusedFact) []fusedFact { f[0].Sources = []string{"a.com"}; return f },
		"object":        func(f []fusedFact) []fusedFact { f[1].Object = "1990"; return f },
	} {
		t.Run(name, func(t *testing.T) {
			wantCheck(t, checkFused(shardTriples(), corrupt(goodFused())), "fused")
		})
	}
}

func TestCheckPublished(t *testing.T) {
	if err := checkPublished([]string{"a.com", "b.com"}, []string{"a.com", "b.com", "c.com"}); err != nil {
		t.Fatal(err)
	}
	wantCheck(t, checkPublished([]string{"a.com", "b.com"}, []string{"a.com"}), "published")
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// writeJobOutput writes shard triples and fused facts in the layout a
// ceres-batch job leaves under its harvest directory.
func writeJobOutput(t *testing.T, dir string, triples []siteTriple, fused []fusedFact) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "triples"), 0o755); err != nil {
		t.Fatal(err)
	}
	shards := map[string][]byte{}
	for _, tr := range triples {
		b, err := json.Marshal(tr.wireTriple)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, "triples", tr.Site+".0.jsonl")
		shards[name] = append(append(shards[name], b...), '\n')
	}
	for name, b := range shards {
		if err := os.WriteFile(name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var fb []byte
	for _, f := range fused {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		fb = append(append(fb, b...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "fused.jsonl"), fb, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckedOutputRechecksChangedBytes shows that a job whose output
// bytes differ from the last fully checked job's is checked in full, so a
// corrupted output fails even after a good one was remembered.
func TestCheckedOutputRechecksChangedBytes(t *testing.T) {
	triples := shardTriples()
	for i := range triples {
		triples[i].Page = "p"
	}
	in := &inputs{gold: &goldIndex{
		facts: map[string]map[string]bool{
			"a.com/p": {"genre\x00drama": true, "release_year\x001989": true},
			"b.com/p": {"genre\x00drama": true},
		},
		topic: map[string]string{"a.com/p": "film", "b.com/p": "film"},
	}}
	dir := t.TempDir()
	var checked checkedOutput
	verify := func() (bool, error) {
		return checked.verify(dir, in, &jobRun{rep: &jobReport{Pages: 2}})
	}

	writeJobOutput(t, dir, triples, goodFused())
	if same, err := verify(); err != nil || same {
		t.Fatalf("first job: same=%v err=%v, want a full check that passes", same, err)
	}
	if same, err := verify(); err != nil || !same {
		t.Fatalf("identical job: same=%v err=%v, want it matched to the checked bytes", same, err)
	}
	bad := goodFused()
	bad[0].Belief += 0.01
	writeJobOutput(t, dir, triples, bad)
	same, err := verify()
	if same {
		t.Fatal("corrupted job matched the checked bytes")
	}
	wantCheck(t, err, "fused")
}
