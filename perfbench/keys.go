package main

import (
	"math"
	"math/rand"

	"phantom/internal/service"
)

// keyClass is which of serve-zipf's three key sets a request came from.
type keyClass int

const (
	hot  keyClass = iota // pre-warmed into the memory cache, zipf popularity
	warm                 // held only in the durable store
	cold                 // never seen before: simulated, coalesced, written through
)

func (c keyClass) String() string { return [...]string{"hot", "warm", "cold"}[c] }

// Key-set sizes and shares of serve-zipf. The hot set is sized so that
// the cache budget (computed from it at set-up) holds it; the warm set
// is as large again, so warm reads promote into the cache and evict.
const (
	nHot  = 64
	nWarm = 64
	// Shares of requests (not of arrival events) per class. Cold keys
	// are few enough that the one simulation worker stays far from
	// saturation below the HTTP path's capacity: near that capacity,
	// saturating the worker would make p99 and the ladder depend on how
	// the cold keys happen to cluster.
	hotShare, warmShare, coldShare = 0.90, 0.09, 0.01
	// coldBurst is how many identical requests each cold key arrives
	// as, so that the later ones coalesce onto the first's simulation.
	coldBurst = 4
	// blockReqs is the stratum of the request stream: every block of
	// this many requests holds exactly the shares above, in seeded
	// order, so that how much simulation a step holds does not depend
	// on the seed.
	blockReqs = 400
	zipfS     = 1.1
)

// keyGen is serve-zipf's seeded request stream. The stream depends on
// the workload seed only: how fast it is consumed does not change it.
type keyGen struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	hot, warm []service.Request
	coldSeed  int64
	coldN     int64
	block     []keyClass // arrival events left in the current block
}

func newKeyGen(wseed int64) *keyGen {
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(wseed) ^ 0x5e7e))))
	g := &keyGen{rng: rng}
	seen := make(map[string]bool)
	for kind := 0; len(g.hot)+len(g.warm) < nHot+nWarm; kind++ {
		r := cheapRequest(rng, kind, rng.Int63n(1_000_000)+1)
		if k := r.Key(); !seen[k] {
			seen[k] = true
			if len(g.hot) < nHot {
				g.hot = append(g.hot, r)
			} else {
				g.warm = append(g.warm, r)
			}
		}
	}
	g.zipf = rand.NewZipf(rng, zipfS, 1, nHot-1)
	// Cold seeds lie above every hot/warm seed and increase, so a cold
	// key is never one seen before.
	g.coldSeed = 2_000_000 + rng.Int63n(1_000_000)*1000
	return g
}

// cheapRequest builds one of serve-zipf's cheap experiments (5-60 ms),
// chosen by kind modulo 3 so that every set holds the three in equal
// parts: a single-arch Table 1, a single-arch Figure 6, or a two-run
// KASLR break, each on a seeded arch.
func cheapRequest(rng *rand.Rand, kind int, seed int64) service.Request {
	var r service.Request
	switch kind % 3 {
	case 0:
		all := []string{"zen1", "zen2", "zen3", "zen4", "intel9", "intel11", "intel12", "intel13"}
		r = service.Request{Experiment: "table1", Archs: []string{all[rng.Intn(len(all))]}, Seed: seed}
	case 1:
		amd := []string{"zen1", "zen2", "zen3", "zen4"}
		r = service.Request{Experiment: "fig6", Archs: []string{amd[rng.Intn(len(amd))]}, Seed: seed}
	default:
		kaslr := []string{"zen2", "zen3", "zen4"}
		r = service.Request{Experiment: "kaslr", Archs: []string{kaslr[rng.Intn(len(kaslr))]}, Seed: seed, Runs: 2}
	}
	return normalize(r)
}

// newBlock returns the arrival events of one block of blockReqs
// requests, in seeded order.
func (g *keyGen) newBlock() []keyClass {
	nCold := int(math.Round(blockReqs * coldShare / coldBurst))
	nWarm := int(math.Round(blockReqs * warmShare))
	nHot := blockReqs - nWarm - nCold*coldBurst
	b := make([]keyClass, nHot+nWarm+nCold)
	for i := nHot; i < len(b); i++ {
		b[i] = warm
		if i >= nHot+nWarm {
			b[i] = cold
		}
	}
	g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// next returns the requests of the next arrival event and their class:
// one hot or warm request, or a burst of coldBurst identical cold ones.
// Cold keys cycle through the three experiment kinds.
func (g *keyGen) next() ([]service.Request, keyClass) {
	if len(g.block) == 0 {
		g.block = g.newBlock()
	}
	c := g.block[0]
	g.block = g.block[1:]
	switch c {
	case hot:
		return []service.Request{g.hot[g.zipf.Uint64()]}, hot
	case warm:
		return []service.Request{g.warm[g.rng.Intn(nWarm)]}, warm
	}
	r := cheapRequest(g.rng, int(g.coldN), g.coldSeed+g.coldN)
	g.coldN++
	burst := make([]service.Request, coldBurst)
	for i := range burst {
		burst[i] = r
	}
	return burst, cold
}
