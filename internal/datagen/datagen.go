// Package datagen synthesizes the four evaluation datasets of the paper —
// DBLP, OpenData, Twitter, and WDC WebTables (§VIII-A1, Table I) — and the
// per-cardinality-interval query benchmarks (§VIII-A2).
//
// The real corpora are not redistributable and the paper's preprocessing
// depends on pre-trained FastText vectors, so the generators reproduce the
// *shape* of each dataset instead (see DESIGN.md §4):
//
//   - set counts, average/maximum cardinalities and vocabulary sizes scaled
//     from Table I (cardinality caps are reduced so that O(n³) verification
//     stays laptop-scale; the paper's own testbed timed out on its largest
//     sets);
//   - power-law cardinality distributions for OpenData/WDC and
//     concentrated distributions for DBLP/Twitter;
//   - Zipfian element frequencies, extreme for WDC (the paper notes WDC's
//     "very frequent elements, which results in excessively large posting
//     lists");
//   - semantic structure from the clustered embedding model: sets draw most
//     elements from a few topic clusters, so semantically related sets share
//     clusters without sharing tokens — what the quality experiment
//     (Fig. 8) measures.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/embedding"
	"repro/internal/sets"
)

// Kind names one of the four evaluation datasets.
type Kind string

// The four dataset kinds of Table I.
const (
	DBLP     Kind = "dblp"
	OpenData Kind = "opendata"
	Twitter  Kind = "twitter"
	WDC      Kind = "wdc"
)

// Kinds lists all dataset kinds in the paper's order.
func Kinds() []Kind { return []Kind{DBLP, OpenData, Twitter, WDC} }

// ParseKind returns the dataset kind named s, or an error naming the four.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown dataset kind %q (want dblp, opendata, twitter, or wdc)", s)
}

// Spec describes the generated shape of a dataset. The fields are chosen so
// that Stats() of the result approximates a scaled Table I.
type Spec struct {
	Kind    Kind
	NumSets int
	MinCard int
	MaxCard int
	// CardAlpha shapes the cardinality distribution: 0 draws near-uniform
	// around the middle of [MinCard,MaxCard]; larger values give a
	// heavier-tailed power law concentrated near MinCard.
	CardAlpha float64
	// Clusters and cluster sizes control vocabulary size ≈ Clusters × mean
	// cluster size.
	Clusters                       int
	MinClusterSize, MaxClusterSize int
	// ElementZipf is the Zipf exponent over clusters when drawing
	// background elements; higher means a few clusters dominate postings.
	ElementZipf float64
	// TopicFraction is the fraction of a set drawn from its topic clusters
	// (the rest is background Zipf noise).
	TopicFraction float64
	// TopicsPerSet bounds the topic clusters per set.
	MinTopics, MaxTopics int
	// DialectSkew is the probability that a set draws the member of a
	// cluster its own "dialect" prefers instead of a uniform member. Sets
	// produced under different standards, spellings, or organizations use
	// different tokens for the same concept (the paper's motivating dirty
	// data); higher skew means same-topic sets share fewer exact tokens
	// while staying semantically aligned.
	DialectSkew float64
	// OOVRate is forwarded to the embedding model.
	OOVRate float64
	// QueryIntervals are the benchmark cardinality intervals ([lo,hi) per
	// row); nil means uniform sampling without intervals (DBLP, Twitter).
	QueryIntervals [][2]int
	// QueriesPerInterval is the benchmark size per interval (or in total
	// when QueryIntervals is nil).
	QueriesPerInterval int
	Seed               int64
}

// DefaultSpec returns the default (laptop-scale) spec for a dataset kind.
// scale multiplies the number of sets and the vocabulary; 1.0 is the default
// benchmark scale documented in EXPERIMENTS.md.
func DefaultSpec(kind Kind, scale float64) Spec {
	if scale <= 0 {
		scale = 1
	}
	n := func(base int) int {
		v := int(math.Round(float64(base) * scale))
		if v < 10 {
			v = 10
		}
		return v
	}
	switch kind {
	case DBLP:
		return Spec{
			Kind: DBLP, NumSets: n(1000), MinCard: 60, MaxCard: 300, CardAlpha: 0,
			Clusters: n(1800), MinClusterSize: 2, MaxClusterSize: 5,
			ElementZipf: 1.05, TopicFraction: 0.8, MinTopics: 8, MaxTopics: 30, DialectSkew: 0.5,
			QueriesPerInterval: 20, Seed: 101,
		}
	case OpenData:
		return Spec{
			Kind: OpenData, NumSets: n(3000), MinCard: 10, MaxCard: 2400, CardAlpha: 0.9,
			Clusters: n(5000), MinClusterSize: 2, MaxClusterSize: 6,
			ElementZipf: 1.1, TopicFraction: 0.85, MinTopics: 2, MaxTopics: 12, DialectSkew: 0.7,
			OOVRate: 0.05,
			QueryIntervals: [][2]int{
				{10, 100}, {100, 200}, {200, 400}, {400, 800}, {800, 1600}, {1600, 2401},
			},
			QueriesPerInterval: 5, Seed: 102,
		}
	case Twitter:
		return Spec{
			Kind: Twitter, NumSets: n(5000), MinCard: 5, MaxCard: 140, CardAlpha: 0.8,
			Clusters: n(4000), MinClusterSize: 2, MaxClusterSize: 5,
			ElementZipf: 1.05, TopicFraction: 0.7, MinTopics: 1, MaxTopics: 5, DialectSkew: 0.5,
			QueriesPerInterval: 20, Seed: 103,
		}
	case WDC:
		return Spec{
			Kind: WDC, NumSets: n(20000), MinCard: 10, MaxCard: 800, CardAlpha: 1.2,
			Clusters: n(8000), MinClusterSize: 2, MaxClusterSize: 6,
			ElementZipf: 1.6, TopicFraction: 0.75, MinTopics: 1, MaxTopics: 8, DialectSkew: 0.7,
			OOVRate: 0.05,
			QueryIntervals: [][2]int{
				{10, 50}, {50, 100}, {100, 200}, {200, 400}, {400, 801},
			},
			QueriesPerInterval: 5, Seed: 104,
		}
	default:
		panic(fmt.Sprintf("datagen: unknown kind %q", kind))
	}
}

// Dataset bundles a generated repository with the embedding model that
// defines its semantic structure.
type Dataset struct {
	Kind  Kind
	Spec  Spec
	Repo  *sets.Repository
	Model *embedding.Model
}

// Generate builds a dataset from spec. Generation is deterministic in
// spec.Seed.
func Generate(spec Spec) *Dataset {
	rng := rand.New(rand.NewSource(spec.Seed))
	model := embedding.NewModel(embedding.Config{
		Clusters:       spec.Clusters,
		MinClusterSize: spec.MinClusterSize,
		MaxClusterSize: spec.MaxClusterSize,
		OOVRate:        spec.OOVRate,
		Seed:           spec.Seed * 7919,
	})
	byCluster := make([][]string, spec.Clusters)
	for _, tok := range model.Tokens() {
		c := model.Cluster(tok)
		byCluster[c] = append(byCluster[c], tok)
	}
	// Zipfian weights over clusters for background draws: cluster at rank r
	// has weight (r+1)^-z. The rank permutation is random so cluster ids
	// carry no order bias.
	perm := rng.Perm(spec.Clusters)
	total := 0.0
	for r := range perm {
		total += math.Pow(float64(r+1), -spec.ElementZipf)
	}
	acc := 0.0
	weightAt := make([]float64, spec.Clusters) // by rank
	for r := range perm {
		w := math.Pow(float64(r+1), -spec.ElementZipf) / total
		acc += w
		weightAt[r] = acc
	}
	sampleClusterByZipf := func() int {
		u := rng.Float64()
		lo, hi := 0, spec.Clusters-1
		for lo < hi {
			mid := (lo + hi) / 2
			if weightAt[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return perm[lo]
	}

	// A set cannot hold more distinct elements than the vocabulary offers;
	// at small scales the vocabulary shrinks below the nominal cardinality
	// caps, so clamp to 60% of the vocabulary (beyond that, rejection
	// sampling of distinct tokens degenerates).
	vocabCap := len(model.Tokens()) * 3 / 5
	if vocabCap < 1 {
		vocabCap = 1
	}

	raw := make([]sets.Set, spec.NumSets)
	for i := 0; i < spec.NumSets; i++ {
		card := sampleCardinality(rng, spec)
		if card > vocabCap {
			card = vocabCap
		}
		dialect := rng.Intn(1 << 16)
		attempts := 0
		elems := make([]string, 0, card)
		seen := make(map[string]bool, card)
		nTopics := spec.MinTopics
		if spec.MaxTopics > spec.MinTopics {
			nTopics += rng.Intn(spec.MaxTopics - spec.MinTopics + 1)
		}
		// Scale topic count with cardinality so large sets span more
		// clusters instead of exhausting a few.
		if need := card / 8; nTopics < need {
			nTopics = need
		}
		topics := make([]int, 0, nTopics)
		for len(topics) < nTopics {
			topics = append(topics, sampleClusterByZipf())
		}
		for len(elems) < card {
			attempts++
			if attempts > 50*card+1000 {
				break // safety valve: vocabulary nearly exhausted
			}
			var cluster int
			if rng.Float64() < spec.TopicFraction {
				cluster = topics[rng.Intn(len(topics))]
			} else {
				cluster = sampleClusterByZipf()
			}
			members := byCluster[cluster]
			if len(members) == 0 {
				continue
			}
			var tok string
			if rng.Float64() < spec.DialectSkew {
				tok = members[(dialect+cluster)%len(members)]
			} else {
				tok = members[rng.Intn(len(members))]
			}
			if !seen[tok] {
				seen[tok] = true
				elems = append(elems, tok)
			} else if rng.Float64() < 0.25 {
				// Dense topics saturate; widen the topic list instead of
				// spinning on duplicates.
				topics = append(topics, sampleClusterByZipf())
			}
		}
		raw[i] = sets.Set{Name: fmt.Sprintf("%s-%d", spec.Kind, i), Elements: elems}
	}
	return &Dataset{Kind: spec.Kind, Spec: spec, Repo: sets.NewRepository(raw), Model: model}
}

func sampleCardinality(rng *rand.Rand, spec Spec) int {
	lo, hi := spec.MinCard, spec.MaxCard
	if hi <= lo {
		return lo
	}
	if spec.CardAlpha <= 0 {
		// Concentrated around the middle: mean of two uniforms.
		u := (rng.Float64() + rng.Float64()) / 2
		return lo + int(u*float64(hi-lo))
	}
	// Truncated power law: inverse-CDF of P(X≥x) ∝ x^−α on [lo,hi].
	a := spec.CardAlpha
	u := rng.Float64()
	loF, hiF := float64(lo), float64(hi)
	x := math.Pow(math.Pow(loF, -a)-u*(math.Pow(loF, -a)-math.Pow(hiF, -a)), -1/a)
	c := int(x)
	if c < lo {
		c = lo
	}
	if c > hi {
		c = hi
	}
	return c
}

// GenerateDefault builds the dataset for kind at the given scale.
func GenerateDefault(kind Kind, scale float64) *Dataset {
	return Generate(DefaultSpec(kind, scale))
}
