package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"ceres"
	"ceres/internal/fsatomic"
	"ceres/internal/strmatch"
	"ceres/internal/websim"
	"ceres/pagestore"
)

// requestSizes is the serve-http request-size mix; a pass holds each
// size equally often.
var requestSizes = []int{1, 2, 4, 8, 16, 32, 64}

// requestsPerPass is the number of extract requests one serve-http pass
// sends (100 of each size); every pass sends the same seeded sequence.
const requestsPerPass = 100 * 7

// inputs is one seed's generated workload input: the websim 33-site crawl
// (the Table-8 analogue), its seed KB, and the gold facts the benchmark
// checks outputs against. The program under test sees only the pages and
// the KB written to disk.
type inputs struct {
	seed  int64
	crawl *websim.Crawl
	gold  *goldIndex
}

func generate(seed int64) *inputs {
	crawl := websim.GenerateCrawl(websim.CrawlConfig{Seed: seed})
	return &inputs{seed: seed, crawl: crawl, gold: newGoldIndex(crawl)}
}

// writeStore materializes a pagestore plus kb.tsv under dir, in the layout
// cmd/ceres-batch uses. keep selects the pages of each site to store (nil
// keeps all); it returns the stored page count.
func (in *inputs) writeStore(dir string, keep func(site *websim.Site) []*websim.Page) (int, error) {
	store, err := pagestore.Open(filepath.Join(dir, "pages"))
	if err != nil {
		return 0, err
	}
	total := 0
	for _, site := range in.crawl.Sites {
		pages := site.Pages
		if keep != nil {
			pages = keep(site)
		}
		w, err := store.Writer(site.Name)
		if err != nil {
			return 0, err
		}
		for _, p := range pages {
			if err := w.Append(ceres.PageSource{ID: p.ID, HTML: p.HTML}); err != nil {
				return 0, err
			}
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		total += len(pages)
	}
	kbPath := filepath.Join(dir, "kb.tsv")
	f, err := os.CreateTemp(dir, ".kb-*")
	if err != nil {
		return 0, err
	}
	if err := in.crawl.SeedKB.Write(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return 0, err
	}
	if err := fsatomic.Commit(f, kbPath); err != nil {
		return 0, err
	}
	return total, nil
}

// trainHalf and heldOut split every site for serve-http: models train on
// the leading half of a site's pages, requests carry the trailing half,
// so no request page was seen at training time.
func trainHalf(site *websim.Site) []*websim.Page { return site.Pages[:(len(site.Pages)+1)/2] }
func heldOut(site *websim.Site) []*websim.Page   { return site.Pages[(len(site.Pages)+1)/2:] }

// request is one extract request of the serve-http set.
type request struct {
	site  string
	pages []*websim.Page
	body  []byte // JSON body, encoded before any timed window
}

// buildRequests draws the seeded request sequence over the held-out pages
// of the served sites. Sizes cycle through requestSizes, each cycle in a
// fresh random order, so every pass holds each size equally often. A
// request of size k goes to a site drawn uniformly among the served sites
// whose held-out pool has at least k pages, and carries a contiguous
// window of that pool from a random offset (wrapping). The generator is
// seeded apart from the crawl, so the mix is a pure function of the seed,
// and the sizes do not depend on which small sites a seed lets train.
func (in *inputs) buildRequests(served []string, n int) ([]request, error) {
	if len(served) == 0 {
		return nil, fmt.Errorf("no served sites to send requests to")
	}
	pools := map[string][]*websim.Page{}
	for _, site := range in.crawl.Sites {
		pools[site.Name] = heldOut(site)
	}
	rng := rand.New(rand.NewSource(in.seed*7919 + 17))
	out := make([]request, 0, n)
	var sizes []int
	for len(out) < n {
		if len(sizes) == 0 {
			for _, i := range rng.Perm(len(requestSizes)) {
				sizes = append(sizes, requestSizes[i])
			}
		}
		k := sizes[0]
		sizes = sizes[1:]
		var eligible []string
		for _, site := range served {
			if len(pools[site]) >= k {
				eligible = append(eligible, site)
			}
		}
		if len(eligible) == 0 {
			return nil, fmt.Errorf("no served site has %d held-out pages", k)
		}
		site := eligible[rng.Intn(len(eligible))]
		pool := pools[site]
		off := rng.Intn(len(pool))
		pages := make([]*websim.Page, k)
		for i := range pages {
			pages[i] = pool[(off+i)%len(pool)]
		}
		body, err := encodeRequest(pages)
		if err != nil {
			return nil, err
		}
		out = append(out, request{site: site, pages: pages, body: body})
	}
	return out, nil
}

// probeRequest is the request that ends a timed daemon boot: one page,
// the first held-out page of the first served site in name order. It is
// one page on every seed, so a boot's time does not depend on the size
// of the first request of the mix.
func (in *inputs) probeRequest(served []string) (request, error) {
	if len(served) == 0 {
		return request{}, fmt.Errorf("no served sites to probe")
	}
	site := slices.Min(served)
	for _, s := range in.crawl.Sites {
		if s.Name != site {
			continue
		}
		pages := heldOut(s)[:1]
		body, err := encodeRequest(pages)
		return request{site: site, pages: pages, body: body}, err
	}
	return request{}, fmt.Errorf("served site %s is not in the crawl", site)
}

// goldIndex holds the websim ground truth, keyed the way eval scores
// facts: (site/page) → {predicate, normalized value}, plus the page's
// normalized topic name, which a correct triple's subject must match.
type goldIndex struct {
	facts map[string]map[string]bool
	topic map[string]string
}

func newGoldIndex(c *websim.Crawl) *goldIndex {
	g := &goldIndex{facts: map[string]map[string]bool{}, topic: map[string]string{}}
	for _, site := range c.Sites {
		for _, p := range site.Pages {
			set := map[string]bool{}
			for _, f := range p.GoldValues() {
				set[f.Predicate+"\x00"+strmatch.Normalize(f.Value)] = true
			}
			k := site.Name + "/" + p.ID
			g.facts[k] = set
			g.topic[k] = strmatch.Normalize(p.TopicName)
		}
	}
	return g
}
