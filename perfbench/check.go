package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"ceres/internal/strmatch"
	"ceres/internal/websim"
)

// minPrecision is the paper's operating point (90% precision on the
// CommonCrawl harvest, Lockard et al. §5.5).
const minPrecision = 0.9

// servedThreshold is the confidence cutoff every model of the benchmark
// is trained and served with: cmd/ceres-batch's default -threshold.
const servedThreshold = 0.5

// checkError is a failed output check; Name says which check failed.
type checkError struct {
	Name string
	Msg  string
}

func (e *checkError) Error() string { return "check " + e.Name + " failed: " + e.Msg }

func failCheck(name, format string, args ...any) error {
	return &checkError{Name: name, Msg: fmt.Sprintf(format, args...)}
}

// wireTriple and wireResponse mirror the daemon's extract reply.
type wireTriple struct {
	Subject    string  `json:"subject"`
	Predicate  string  `json:"predicate"`
	Object     string  `json:"object"`
	Confidence float64 `json:"confidence"`
	Page       string  `json:"page"`
	Path       string  `json:"path"`
}

type wireResponse struct {
	Site      string       `json:"site"`
	Version   int          `json:"version"`
	Threshold float64      `json:"threshold"`
	Triples   []wireTriple `json:"triples"`
}

type wirePage struct {
	ID   string `json:"id"`
	HTML string `json:"html"`
}

func encodeRequest(pages []*websim.Page) ([]byte, error) {
	var body struct {
		Pages []wirePage `json:"pages"`
	}
	for _, p := range pages {
		body.Pages = append(body.Pages, wirePage{ID: p.ID, HTML: p.HTML})
	}
	return json.Marshal(body)
}

// factScore collects the distinct (site, page, predicate, normalized
// value) facts of one pass and scores them against the websim gold facts
// with internal/eval's normalization. A fact is correct when the page
// asserts it about its topic: the (predicate, value) pair is among the
// page's gold facts and the triple's subject is the page's topic name.
type factScore struct {
	gold    *goldIndex
	norm    normCache
	all     map[string]bool
	correct map[string]bool
}

func newFactScore(g *goldIndex) *factScore {
	return &factScore{gold: g, norm: normCache{}, all: map[string]bool{}, correct: map[string]bool{}}
}

// normCache memoizes strmatch.Normalize: outputs repeat the same subjects
// and values many times.
type normCache map[string]string

func (c normCache) of(s string) string {
	n, ok := c[s]
	if !ok {
		n = strmatch.Normalize(s)
		c[s] = n
	}
	return n
}

func (s *factScore) add(site string, t wireTriple) {
	page := site + "/" + t.Page
	pv := t.Predicate + "\x00" + s.norm.of(t.Object)
	k := page + "\x00" + pv
	s.all[k] = true
	if s.gold.facts[page][pv] && s.norm.of(t.Subject) == s.gold.topic[page] {
		s.correct[k] = true
	}
}

// check enforces the quality gate: some correct facts, at precision at
// least minPrecision.
func (s *factScore) check() error {
	if len(s.correct) == 0 {
		return failCheck("facts_correct", "no extracted fact matches the gold facts (%d facts extracted)", len(s.all))
	}
	if p := float64(len(s.correct)) / float64(len(s.all)); p < minPrecision {
		return failCheck("precision", "precision %.4f (%d of %d facts) is below %.2f", p, len(s.correct), len(s.all), minPrecision)
	}
	return nil
}

// checkSameFacts requires every pass over the same input to find the
// same number of correct facts.
func checkSameFacts(first, cur int) error {
	if first != cur {
		return failCheck("facts_correct", "a pass found %d correct facts, the first pass %d", cur, first)
	}
	return nil
}

// tripleOrder is the canonical extraction order, restated here apart
// from the program: descending confidence, then page, predicate, object,
// subject and path ascending.
func tripleOrder(a, b wireTriple) int {
	switch {
	case a.Confidence > b.Confidence:
		return -1
	case a.Confidence < b.Confidence:
		return 1
	}
	for _, c := range [][2]string{{a.Page, b.Page}, {a.Predicate, b.Predicate}, {a.Object, b.Object}, {a.Subject, b.Subject}, {a.Path, b.Path}} {
		if d := strings.Compare(c[0], c[1]); d != 0 {
			return d
		}
	}
	return 0
}

// checkResponse validates one extract reply against its request: the
// serving site, only pages from the request, every confidence at or above
// the served threshold, and canonical order.
func checkResponse(req request, resp *wireResponse) error {
	if resp.Site != req.site {
		return failCheck("response-site", "request for %s answered for %q", req.site, resp.Site)
	}
	ids := make(map[string]bool, len(req.pages))
	for _, p := range req.pages {
		ids[p.ID] = true
	}
	for i, t := range resp.Triples {
		if !ids[t.Page] {
			return failCheck("response-pages", "%s: triple %d names page %q, which the request did not carry", req.site, i, t.Page)
		}
		if t.Confidence < servedThreshold || t.Confidence < resp.Threshold {
			return failCheck("threshold", "%s: triple %d has confidence %v below the served threshold %v", req.site, i, t.Confidence, max(servedThreshold, resp.Threshold))
		}
		if i > 0 && tripleOrder(resp.Triples[i-1], t) > 0 {
			return failCheck("canonical-order", "%s: triples %d and %d are out of canonical order", req.site, i-1, i)
		}
	}
	return nil
}

// siteTriple is one committed shard triple with the site it was
// harvested from.
type siteTriple struct {
	Site string
	wireTriple
}

// fusedFact mirrors one line of fused.jsonl.
type fusedFact struct {
	Subject   string
	Predicate string
	Object    string
	Belief    float64
	Sources   []string
}

// checkFused recomputes fusion from the committed shard triples — the
// benchmark's own grouping by (normalized subject, predicate, normalized
// object), a noisy-or belief under the default 0.7 source prior, and the
// distinct source sites — and requires fused.jsonl to hold exactly those
// facts.
func checkFused(triples []siteTriple, fused []fusedFact) error {
	type group struct {
		oneMinus float64
		sources  []string
	}
	norm := normCache{}
	key := func(s, p, o string) string {
		return norm.of(s) + "\x00" + p + "\x00" + norm.of(o)
	}
	groups := map[string]*group{}
	for _, t := range triples {
		if t.Predicate == "" || norm.of(t.Subject) == "" || norm.of(t.Object) == "" {
			continue // the fusion contract ignores facts it cannot name
		}
		k := key(t.Subject, t.Predicate, t.Object)
		g := groups[k]
		if g == nil {
			g = &group{oneMinus: 1}
			groups[k] = g
		}
		g.oneMinus *= 1 - 0.7*math.Min(1, math.Max(0, t.Confidence))
		if !slices.Contains(g.sources, t.Site) {
			g.sources = append(g.sources, t.Site)
		}
	}
	if len(fused) != len(groups) {
		return failCheck("fused", "fused.jsonl holds %d facts, the shard triples group into %d", len(fused), len(groups))
	}
	seen := make(map[string]bool, len(fused))
	for _, f := range fused {
		k := key(f.Subject, f.Predicate, f.Object)
		g := groups[k]
		if g == nil || seen[k] {
			return failCheck("fused", "fused fact (%q, %s, %q) matches no group of the shard triples, or repeats one", f.Subject, f.Predicate, f.Object)
		}
		seen[k] = true
		if want := 1 - g.oneMinus; math.Abs(f.Belief-want) > 1e-9 {
			return failCheck("fused", "fused fact (%q, %s, %q) has belief %v, the shard triples give %v", f.Subject, f.Predicate, f.Object, f.Belief, want)
		}
		src := slices.Clone(g.sources)
		slices.Sort(src)
		if !slices.Equal(src, f.Sources) {
			return failCheck("fused", "fused fact (%q, %s, %q) has sources %v, the shard triples give %v", f.Subject, f.Predicate, f.Object, f.Sources, src)
		}
	}
	return nil
}

// checkPublished requires a stored model for every site a harvest serves.
func checkPublished(served, stored []string) error {
	for _, s := range served {
		if !slices.Contains(stored, s) {
			return failCheck("published", "site %s was served but the model store holds no model for it", s)
		}
	}
	return nil
}
