package core

import (
	"math"

	"olgapro/internal/ecdf"
	"olgapro/internal/mat"
	"olgapro/internal/rtree"
)

// evalScratch is the persistent per-evaluator workspace behind the
// near-zero-allocation evaluation hot path: every buffer whose size depends
// only on the Monte-Carlo sample count m, the training-set size n, or the
// local-subset size l lives here and is reused across Eval calls. An
// Evaluator is documented as single-goroutine, which is what makes one
// workspace per evaluator sound; the predictBuf pool additionally gives each
// predictInto worker goroutine its own buffers.
type evalScratch struct {
	sampleData []float64   // flat backing array for Eval's m×d sample matrix
	samples    [][]float64 // row headers into sampleData

	means, vars []float64 // per-sample posterior moments

	lc localCtx // the per-tuple local inference context, rebuilt in place

	env     envScratch        // envelope buffers for the error-bound loop
	tuneEnv envScratch        // separate buffers for pickOptimalGreedy's trials
	bound   ecdf.BoundScratch // DiscrepancyBound work buffers

	sel  markSet // selectLocal membership (per radius step)
	skip markSet // per-tuple skip set for tuning picks

	idBuf []int       // selectLocal id staging (copied into lc by buildLocal)
	gram  *mat.Matrix // local Gram staging for buildLocal

	box          boxScratch // sample bounding-box and sub-box buffers
	domLo, domHi []float64  // domainDiameter extent buffers

	pbufs []predictBuf // per-worker inference buffers; index 0 is sequential

	tuneMeans, tuneVars []float64 // pickOptimalGreedy evaluation-subset moments
	tuneY               []float64 // pickOptimalGreedy local observations

	// rank-1 greedy fast-path buffers (greedyBestRank1).
	tuneCands  []int       // candidate pool, by descending variance
	tuneAlpha  []float64   // local-solve weights α_L = K_L⁻¹ y_L
	tuneMHat   []float64   // local-solve means at the evaluation subset
	tuneEvalXs [][]float64 // evaluation-subset sample rows
	tuneCross  *mat.Matrix // eval×l cross-covariance rows K_eval
	tuneK      []float64   // candidate cross-vector k_c
	tuneU      []float64   // candidate solve u_c = K_L⁻¹ k_c
	tuneCC     []float64   // candidate↔eval kernel values k(x_c, x_j)
}

// boxScratch owns the per-tuple sample bounding box and the §5.1 sub-box
// partition. Both are recomputed every tuple from scratch-backed slices, so
// the steady state pays no allocation for them; the returned rects alias the
// scratch and are valid only until the next bounding/sub call.
type boxScratch struct {
	lo, hi []float64          // overall bounding-box backing
	cells  [1 << 3]rtree.Rect // per-cell tight boxes (d ≤ 3), backings reused
	used   [1 << 3]bool
	out    []rtree.Rect // returned sub-box headers
}

// bounding computes the tight bounding box of samples into the reused
// backing arrays.
func (b *boxScratch) bounding(samples [][]float64) rtree.Rect {
	b.lo = append(b.lo[:0], samples[0]...)
	b.hi = append(b.hi[:0], samples[0]...)
	for _, p := range samples[1:] {
		for i, v := range p {
			if v < b.lo[i] {
				b.lo[i] = v
			}
			if v > b.hi[i] {
				b.hi[i] = v
			}
		}
	}
	return rtree.Rect{Lo: b.lo, Hi: b.hi}
}

// sub partitions samples into up-to-2^d sub-boxes split at the overall box
// center and returns the tight bounding box of each non-empty cell — the
// refinement the paper notes makes γ tighter. For d > 3 (2^d cells stop
// paying off) or few samples a single box is used. box must be the bounding
// box of samples.
func (b *boxScratch) sub(samples [][]float64, box rtree.Rect) []rtree.Rect {
	d := len(samples[0])
	out := b.out[:0]
	if d > 3 || len(samples) < 16 {
		b.out = append(out, box)
		return b.out
	}
	for k := range b.used {
		b.used[k] = false
	}
	for _, s := range samples {
		key := 0
		for j := 0; j < d; j++ {
			if s[j] > (box.Lo[j]+box.Hi[j])/2 {
				key |= 1 << j
			}
		}
		c := &b.cells[key]
		if !b.used[key] {
			b.used[key] = true
			c.Lo = append(c.Lo[:0], s...)
			c.Hi = append(c.Hi[:0], s...)
		} else {
			for j, v := range s {
				if v < c.Lo[j] {
					c.Lo[j] = v
				}
				if v > c.Hi[j] {
					c.Hi[j] = v
				}
			}
		}
	}
	for k := 0; k < 1<<d; k++ {
		if b.used[k] {
			out = append(out, b.cells[k])
		}
	}
	b.out = out
	return out
}

// resizeRows grows *buf to n row headers, reusing capacity.
func resizeRows(buf *[][]float64, n int) [][]float64 {
	if cap(*buf) < n {
		*buf = make([][]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// buf returns worker buffer w, growing the pool as needed.
func (s *evalScratch) buf(w int) *predictBuf {
	s.growBufs(w + 1)
	return &s.pbufs[w]
}

// growBufs ensures the pool holds at least p buffers. It must be called
// before worker goroutines take pointers into the pool, since growth moves
// the backing array.
func (s *evalScratch) growBufs(p int) {
	for len(s.pbufs) < p {
		s.pbufs = append(s.pbufs, predictBuf{})
	}
}

// resizeFloats grows *buf to length n, reusing capacity, and returns it.
func resizeFloats(buf *[]float64, n int) []float64 {
	*buf = resizeFloatsVal(*buf, n)
	return *buf
}

// resizeFloatsVal grows buf to length n, reusing capacity, and returns it.
func resizeFloatsVal(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// markSet is an epoch-stamped integer set over [0, n): reset is O(1) — one
// epoch bump — instead of the O(n) rebuild of the map[int]bool it replaces,
// and membership is a single slice load.
type markSet struct {
	marks []int32
	epoch int32
	count int
}

// reset empties the set and sizes it for ids in [0, n).
func (m *markSet) reset(n int) {
	if cap(m.marks) < n {
		grown := make([]int32, n)
		copy(grown, m.marks)
		m.marks = grown
	}
	m.marks = m.marks[:n]
	if m.epoch == math.MaxInt32 {
		// Epoch wrap: clear stamps so stale entries cannot collide.
		for i := range m.marks {
			m.marks[i] = 0
		}
		m.epoch = 0
	}
	m.epoch++
	m.count = 0
}

// add inserts id (idempotently).
func (m *markSet) add(id int) {
	if m.marks[id] != m.epoch {
		m.marks[id] = m.epoch
		m.count++
	}
}

// has reports membership.
func (m *markSet) has(id int) bool { return m.marks[id] == m.epoch }

// size returns the number of distinct ids added since the last reset.
func (m *markSet) size() int { return m.count }

// envScratch owns the three sorted sample buffers an envelope is built from,
// plus one sort permutation per support. The permutations persist across
// envelopeOf calls: within a tuple's tuning loop consecutive calls see means
// and variances that moved only slightly (one rank-1 model update), so
// writing the new values in the previous sorted order yields a handful of
// ascending runs and the adaptive merge below restores order in ~O(m) —
// the steady-state loop performs no comparison sort at all, where each call
// formerly paid three O(m log m) slices.Sort passes.
type envScratch struct {
	mean, lower, upper  []float64
	permM, permL, permU []int
	permN               int       // sample count the permutations cover
	mergeV              []float64 // natural-merge value scratch
	mergeP              []int     // natural-merge permutation scratch

	// The three ECDF structs the returned envelope points into. Reusing
	// them (ecdf.SetSorted) instead of allocating fresh ones per call is
	// what makes the greedy trial loop — one envelopeOf per candidate —
	// allocation-free in the steady state; it also means an envelope from a
	// previous call is repointed, which the aliasing contract (valid only
	// until the next envelopeOf on the same scratch) already forbade using.
	meanE, lowerE, upperE ecdf.ECDF
}

// syncPerms sizes the three permutations to n samples. A grown range is
// appended as identity, so the previous order stays a prefix run and only
// the new suffix needs merging. A shrunk range (new tuple with a smaller
// budget) resets to identity.
func (s *envScratch) syncPerms(n int) {
	if s.permN > n {
		s.permN = 0
		s.permM, s.permL, s.permU = s.permM[:0], s.permL[:0], s.permU[:0]
	}
	for i := s.permN; i < n; i++ {
		s.permM = append(s.permM, i)
		s.permL = append(s.permL, i)
		s.permU = append(s.permU, i)
	}
	s.permN = n
}

// envelopeOf builds the three empirical CDFs Ŷ′, Y′_S, Y′_L from the
// inferred means and variances of the first n samples, reusing the scratch
// buffers. The returned envelope aliases them: it is valid only until the
// next envelopeOf call on the same scratch, and must be deep-copied (see
// ownedEnvelope) before escaping into an Output.
func (s *envScratch) envelopeOf(means, vars []float64, zAlpha float64, n int) ecdf.Envelope {
	mean := resizeFloats(&s.mean, n)
	lower := resizeFloats(&s.lower, n)
	upper := resizeFloats(&s.upper, n)
	if n == 0 {
		return ecdf.Envelope{
			Mean:  s.meanE.SetSorted(mean),
			Lower: s.lowerE.SetSorted(lower),
			Upper: s.upperE.SetSorted(upper),
		}
	}
	s.syncPerms(n)
	for k, i := range s.permM[:n] {
		mean[k] = means[i]
	}
	sortWithPerm(mean, s.permM[:n], &s.mergeV, &s.mergeP)
	// Homoscedastic fast path: with one shared variance the lower and upper
	// supports are constant shifts of the sorted mean support, so they need
	// no ordering work of their own (ecdf.FromSortedShifted).
	uniform := true
	for i := 1; i < n; i++ {
		if vars[i] != vars[0] {
			uniform = false
			break
		}
	}
	if uniform {
		off := zAlpha * math.Sqrt(vars[0])
		return ecdf.Envelope{
			Mean:  s.meanE.SetSorted(mean),
			Lower: s.lowerE.SetSortedShifted(lower, mean, -off),
			Upper: s.upperE.SetSortedShifted(upper, mean, off),
		}
	}
	for k, i := range s.permL[:n] {
		lower[k] = means[i] - zAlpha*math.Sqrt(vars[i])
	}
	sortWithPerm(lower, s.permL[:n], &s.mergeV, &s.mergeP)
	for k, i := range s.permU[:n] {
		upper[k] = means[i] + zAlpha*math.Sqrt(vars[i])
	}
	sortWithPerm(upper, s.permU[:n], &s.mergeV, &s.mergeP)
	return ecdf.Envelope{
		Mean:  s.meanE.SetSorted(mean),
		Lower: s.lowerE.SetSorted(lower),
		Upper: s.upperE.SetSorted(upper),
	}
}

// sortWithPerm sorts vals ascending while applying the same reordering to
// perm, using a bottom-up natural merge: maximal ascending runs are detected
// and adjacent runs merged until one remains, ping-ponging through the
// scratch buffers. Already-sorted input is a single O(n) scan with zero
// writes; r runs cost O(n log r); fully random input degrades gracefully to
// an ordinary O(n log n) merge sort. This adaptivity is what the persistent
// envelope permutations exploit.
func sortWithPerm(vals []float64, perm []int, mergeV *[]float64, mergeP *[]int) {
	n := len(vals)
	if n < 2 {
		return
	}
	sorted := true
	for i := 1; i < n; i++ {
		if fless(vals[i], vals[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	sv := resizeFloats(mergeV, n)
	sp := resizeInts(mergeP, n)
	srcV, srcP := vals, perm
	dstV, dstP := sv, sp
	for {
		runs := 0
		out := 0
		i := 0
		for i < n {
			// First run [i, j).
			j := i + 1
			for j < n && !fless(srcV[j], srcV[j-1]) {
				j++
			}
			if j == n {
				copy(dstV[out:], srcV[i:])
				copy(dstP[out:], srcP[i:])
				runs++
				break
			}
			// Second run [j, k); merge the pair into dst.
			k := j + 1
			for k < n && !fless(srcV[k], srcV[k-1]) {
				k++
			}
			a, b := i, j
			for a < j && b < k {
				if fless(srcV[b], srcV[a]) {
					dstV[out], dstP[out] = srcV[b], srcP[b]
					b++
				} else {
					dstV[out], dstP[out] = srcV[a], srcP[a]
					a++
				}
				out++
			}
			for ; a < j; a++ {
				dstV[out], dstP[out] = srcV[a], srcP[a]
				out++
			}
			for ; b < k; b++ {
				dstV[out], dstP[out] = srcV[b], srcP[b]
				out++
			}
			runs++
			i = k
		}
		if runs <= 1 {
			if &dstV[0] != &vals[0] {
				copy(vals, dstV)
				copy(perm, dstP)
			}
			return
		}
		srcV, srcP, dstV, dstP = dstV, dstP, srcV, srcP
	}
}

// fless is the NaN-first strict weak order slices.Sort applies to float64 —
// a *total* order, which is what guarantees the natural merge's run count
// shrinks every pass (plain < stalls on NaN: it breaks every run containing
// one and the merge loops forever).
func fless(a, b float64) bool { return a < b || (a != a && b == b) }

// resizeInts grows *buf to length n, reusing capacity, and returns it.
func resizeInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ownedEnvelope deep-copies a scratch-backed envelope so it can outlive the
// evaluator's workspace — the one O(m) allocation a non-filtered tuple pays,
// for the distribution it hands back to the caller.
func ownedEnvelope(env ecdf.Envelope) ecdf.Envelope {
	return ecdf.Envelope{
		Mean:  ecdf.FromSorted(mat.CloneVec(env.Mean.Values())),
		Lower: ecdf.FromSorted(mat.CloneVec(env.Lower.Values())),
		Upper: ecdf.FromSorted(mat.CloneVec(env.Upper.Values())),
	}
}
