package main

import (
	"fmt"
	"math/rand"
	"sort"

	"olgapro/client"
	"olgapro/internal/astro"
	"olgapro/internal/sdss"
	"olgapro/internal/udf"
)

// The deployment — the 8000-galaxy catalog and the warmups that train the
// served models — is generated from datasetSeed and is the same in every
// run, as a benchmark's dataset is; --seed generates the traffic. Models
// warmed from different samples differ in size by a quarter, which would
// otherwise swamp the run-to-run comparison.
const (
	catalogSize = 8000
	datasetSeed = 2013
)

// newCatalog generates the synthetic SDSS catalog.
func newCatalog() []sdss.Galaxy {
	return sdss.Generate(sdss.GenerateConfig{N: catalogSize, Seed: datasetSeed}).Galaxies
}

func zSpec(g sdss.Galaxy) client.DistSpec {
	return client.DistSpec{Type: "normal", Mu: g.Redshift, Sigma: g.RedshiftErr}
}

// galaxyInput is galaxy i's input tuple for an astro UDF: its redshift for
// astro/galage, and its redshift paired with its catalog successor's for
// astro/comovevol (the volume between the two).
func galaxyInput(udfName string, cat []sdss.Galaxy, i int) client.InputSpec {
	if udfName == "astro/comovevol" {
		return client.InputSpec{zSpec(cat[i]), zSpec(cat[(i+1)%len(cat)])}
	}
	return client.InputSpec{zSpec(cat[i])}
}

// mixInput draws a §6.1-B input for the 2-D mixture family: means one σ
// inside the [0,10]² domain, σ = 0.5.
func mixInput(rng *rand.Rand) client.InputSpec {
	in := make(client.InputSpec, 2)
	for j := range in {
		in[j] = client.DistSpec{Type: "normal", Mu: udf.DomainLo + 1 + rng.Float64()*(udf.DomainHi-udf.DomainLo-2), Sigma: 0.5}
	}
	return in
}

// catalogFunc is the black-box function behind a server catalog name, for
// the Monte Carlo audit and the core replay. It must match the server's
// catalog; the replay's support-hash comparison proves that it does.
func catalogFunc(name string) (udf.Func, error) {
	cosmo := astro.Default()
	switch name {
	case "astro/galage":
		return astro.GalAgeFunc(cosmo), nil
	case "astro/comovevol":
		return astro.ComoveVolFunc(cosmo, 100), nil
	case "mix/f1":
		return udf.Standard(udf.F1, 1), nil
	case "mix/f3":
		return udf.Standard(udf.F3, 1), nil
	}
	return nil, fmt.Errorf("no catalog function %q", name)
}

// instance is one registered UDF instance and the inputs the benchmark
// sends it.
type instance struct {
	name, udf string
	eps       float64
	warmup    []client.InputSpec
	reqs      []client.EvalRequest // learn_cold: the instance's first tuples
}

func (in instance) register() client.RegisterRequest {
	return client.RegisterRequest{UDF: in.udf, Name: in.name, Eps: in.eps, Warmup: in.warmup, WarmupSeed: 7}
}

// learn_cold: 16 cold instances cycling through four catalog UDFs, 64
// learning tuples each.
var coldUDFs = []string{"mix/f1", "mix/f3", "astro/comovevol", "astro/galage"}

const (
	coldInstances = 16
	coldTuples    = 64
	coldEps       = 0.1
)

// coldPlan is round r's cold instances and their tuples.
func coldPlan(seed int64, round int, cat []sdss.Galaxy) []instance {
	out := make([]instance, coldInstances)
	for i := range out {
		rng := rand.New(rand.NewSource(mix64(seed, int64(round*coldInstances+i))))
		in := instance{name: fmt.Sprintf("cold%02d", i), udf: coldUDFs[i%len(coldUDFs)], eps: coldEps}
		for j := 0; j < coldTuples; j++ {
			var x client.InputSpec
			if in.udf[:4] == "mix/" {
				x = mixInput(rng)
			} else {
				x = galaxyInput(in.udf, cat, rng.Intn(len(cat)))
			}
			in.reqs = append(in.reqs, client.EvalRequest{Input: x, Seed: rng.Int63()})
		}
		out[i] = in
	}
	return out
}

// warmInstance builds an instance of one astro UDF at ε, warmed with
// warmupTuples galaxies; k picks the warmup sample.
const warmupTuples = 256

func warmInstance(name, udfName string, eps float64, k int64, cat []sdss.Galaxy) instance {
	rng := rand.New(rand.NewSource(datasetSeed*100 + k))
	in := instance{name: name, udf: udfName, eps: eps}
	for j := 0; j < warmupTuples; j++ {
		in.warmup = append(in.warmup, galaxyInput(udfName, cat, rng.Intn(len(cat))))
	}
	return in
}

// serve_frozen: two instances, Zipf galaxy popularity, fixed per-galaxy seed.
const (
	frozenEps  = 0.2
	zipfS      = 1.1
	zipfClient = 2
)

func frozenInstances(cat []sdss.Galaxy) []instance {
	return []instance{
		warmInstance("galage", "astro/galage", frozenEps, 1, cat),
		warmInstance("comovevol", "astro/comovevol", frozenEps, 2, cat),
	}
}

// frozenGen draws one client's frozen requests: galaxy ranks by Zipf(s),
// mapped through a seeded permutation so popularity is not catalog order,
// and the instance, galage three times in four. The two instances' latencies
// form two modes (comovevol costs about twice galage); an even mix would
// put the median in the trough between them, where it jumps with every
// shift of the mix. A (galaxy, instance) key always sends the same bytes.
type frozenGen struct {
	seed  int64
	cat   []sdss.Galaxy
	perm  []int
	rng   *rand.Rand
	zipf  *rand.Zipf
	insts []instance
}

func newFrozenGen(seed int64, client int, cat []sdss.Galaxy, insts []instance) *frozenGen {
	rng := rand.New(rand.NewSource(seed*7 + int64(client) + 1))
	return &frozenGen{
		seed:  seed,
		cat:   cat,
		perm:  rand.New(rand.NewSource(seed)).Perm(len(cat)),
		rng:   rng,
		zipf:  rand.NewZipf(rng, zipfS, 1, uint64(len(cat)-1)),
		insts: insts,
	}
}

// next returns the key, the instance and the request of the next op.
func (g *frozenGen) next() (int, instance, client.EvalRequest) {
	key := 2 * g.perm[g.zipf.Uint64()]
	if g.rng.Intn(4) == 3 {
		key++
	}
	in, req := g.request(key)
	return key, in, req
}

// request is the fixed request of key = 2·galaxy + instance.
func (g *frozenGen) request(key int) (instance, client.EvalRequest) {
	learn := false
	in := g.insts[key%2]
	return in, client.EvalRequest{Input: galaxyInput(in.udf, g.cat, key/2), Seed: mix64(g.seed, int64(key)), Learn: &learn}
}

// mix64 derives a non-negative seed from (base, i) (splitmix64 finalizer).
func mix64(base, i int64) int64 {
	z := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// query_scatter: one comovevol instance per shard, 384-row plans.
const (
	scatterShards = 3
	scatterRows   = 384
	scatterRABins = 8
	scatterTopK   = 3
	scatterKeep   = 0.2 // share of rows the predicate should keep
)

// scatterRelation picks the plan's 384 distinct galaxies, spreads them over
// the instances and groups them by RA bin. The predicate keeps tuples whose
// comoving volume probably exceeds the (1 − scatterKeep) quantile of the
// rows' volumes at their mean redshifts.
func scatterRelation(seed int64, cat []sdss.Galaxy, names []string) ([]client.QueryRow, client.PredicateSpec) {
	rng := rand.New(rand.NewSource(seed*13 + 5))
	f := astro.ComoveVolFunc(astro.Default(), 100)
	rows := make([]client.QueryRow, scatterRows)
	vols := make([]float64, scatterRows)
	for i, gal := range rng.Perm(len(cat))[:scatterRows] {
		in := galaxyInput("astro/comovevol", cat, gal)
		bin := int(float64(scatterRABins) * (cat[gal].RA - 150) / 50)
		rows[i] = client.QueryRow{Input: in, Group: fmt.Sprintf("ra%d", bin), UDF: names[i%len(names)]}
		vols[i] = f.Eval([]float64{in[0].Mu, in[1].Mu})
	}
	sort.Float64s(vols)
	cut := vols[int((1-scatterKeep)*float64(len(vols)))]
	return rows, client.PredicateSpec{A: cut, B: 1e15, Theta: 0.5}
}

func scatterPlan(rows []client.QueryRow, pred client.PredicateSpec, seed int64) client.QueryRequest {
	return client.QueryRequest{
		Rows: rows, Seed: seed, Predicate: &pred,
		GroupBy: &client.GroupBySpec{
			Keys: []string{"g"},
			Aggs: []client.AggSpec{{Kind: "count"}, {Kind: "avg", Attr: "y"}},
		},
		TopK: &client.TopKSpec{K: scatterTopK, By: "avg_y", Desc: true},
	}
}
