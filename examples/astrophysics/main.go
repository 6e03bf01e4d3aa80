// Astrophysics: the paper's motivating queries Q1 and Q2 (§1) over a
// synthetic SDSS-like catalog whose position and redshift attributes carry
// measurement uncertainty.
//
//	Q1: SELECT G.objID, GalAge(G.redshift) FROM Galaxy G
//	Q2: SELECT G1.objID, G2.objID, ComoveVol(G1.redshift, G2.redshift, AREA)
//	    FROM Galaxy G1, Galaxy G2
//	    WHERE Distance(G1.pos, G2.pos) ∈ [l, u]
//
// The GalAge and ComoveVol UDFs are real ΛCDM computations (numerical
// quadrature); the uncertainty of each attribute propagates into a full
// output distribution per tuple rather than a single number.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"olgapro"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	cosmo := olgapro.DefaultCosmology()
	cat := olgapro.GenerateCatalog(24, 7)

	rel := make([]*olgapro.Tuple, len(cat.Galaxies))
	for i, g := range cat.Galaxies {
		rel[i] = olgapro.GalaxyTuple(g.ObjID, g.RA, g.Dec, g.RAErr, g.DecErr,
			g.Redshift, g.RedshiftErr)
	}

	// --- Q1: galaxy ages with uncertainty ---
	ageEval, err := olgapro.NewEvaluator(olgapro.GalAgeUDF(cosmo), olgapro.Config{
		Eps: 0.1, Delta: 0.05, Kernel: olgapro.SqExpKernel(4, 0.3),
	})
	if err != nil {
		log.Fatal(err)
	}
	q1 := &olgapro.ApplyUDFOp{
		In:     olgapro.NewScan(rel),
		Inputs: []string{"redshift"},
		Out:    "galAge",
		Engine: olgapro.GPEngine(ageEval),
		Rng:    rng,
	}
	results, err := olgapro.Drain(q1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q1: SELECT objID, GalAge(redshift) FROM Galaxy")
	fmt.Println("objID     z(mean)   age median  age 90% interval (Gyr)")
	for _, t := range results[:8] {
		z := t.MustGet("redshift").D.Mean()
		age := t.MustGet("galAge").R
		fmt.Printf("%d  %7.4f  %9.3f   [%.3f, %.3f]\n",
			t.MustGet("objID").I, z,
			age.Quantile(0.5), age.Quantile(0.05), age.Quantile(0.95))
	}
	st := ageEval.Stats()
	fmt.Printf("(GalAge: %d tuples evaluated with %d UDF calls — MC would need %d)\n\n",
		len(results), st.UDFCalls,
		len(results)*olgapro.MCSampleSize(0.1, 0.05, olgapro.MetricDiscrepancy))

	// --- Q2: comoving volume of nearby pairs ---
	pairsRel := rel[:10]
	join := olgapro.NewCrossJoin(pairsRel, "g1.", pairsRel, "g2.", true)
	allPairs, err := olgapro.Drain(join)
	if err != nil {
		log.Fatal(err)
	}

	// WHERE Distance(g1.pos, g2.pos) ∈ [0, 20]° with TEP threshold 0.2:
	// pairs that cannot be within 20° (with probability ≥ 0.2) are dropped.
	distEval, err := olgapro.NewEvaluator(olgapro.AngDist4UDF(), olgapro.Config{
		Eps: 0.1, Delta: 0.05, Kernel: olgapro.SqExpKernel(20, 15),
	})
	if err != nil {
		log.Fatal(err)
	}
	withDist := &olgapro.ApplyUDFOp{
		In:        olgapro.NewScan(allPairs),
		Inputs:    []string{"g1.ra", "g1.dec", "g2.ra", "g2.dec"},
		Out:       "distance",
		Engine:    olgapro.GPEngine(distEval),
		Rng:       rng,
		Predicate: &olgapro.Predicate{A: 0, B: 20, Theta: 0.2},
	}
	volEval, err := olgapro.NewEvaluator(olgapro.ComoveVolUDF(cosmo, 100), olgapro.Config{
		Eps: 0.1, Delta: 0.05, Kernel: olgapro.SqExpKernel(5e7, 0.3),
	})
	if err != nil {
		log.Fatal(err)
	}
	q2 := &olgapro.ApplyUDFOp{
		In:     withDist,
		Inputs: []string{"g1.redshift", "g2.redshift"},
		Out:    "comoveVol",
		Engine: olgapro.GPEngine(volEval),
		Rng:    rng,
	}
	kept, err := olgapro.Drain(q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q2: ... WHERE Distance(g1.pos, g2.pos) ∈ [0, 20]°  (θ = 0.2)")
	fmt.Printf("pairs: %d, dropped by TEP filter: %d, kept: %d\n",
		len(allPairs), withDist.Dropped, len(kept))
	fmt.Println("g1        g2        dist°    comoving volume median (Mpc³)")
	for i, t := range kept {
		if i >= 6 {
			fmt.Printf("... (%d more)\n", len(kept)-6)
			break
		}
		fmt.Printf("%d  %d  %7.3f  %12.4g\n",
			t.MustGet("g1.objID").I, t.MustGet("g2.objID").I,
			t.MustGet("distance").R.Quantile(0.5),
			t.MustGet("comoveVol").R.Quantile(0.5))
	}
}
