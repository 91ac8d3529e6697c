package stats

import (
	"math"
	"math/bits"
)

// fft.go implements the fast autocorrelogram path: a radix-2 iterative
// FFT plus the Wiener–Khinchin theorem. The naive §IV-D sum costs
// O(n·maxLag); computing the power spectrum of the zero-padded,
// mean-centered series and transforming back yields every lag at once
// in O(L log L), L being the padded transform length. The detectors
// autocorrelate event trains of 10^4–10^6 entries at lags up to
// thousands, which is where the O(n·maxLag) sum dominated ccrepro's
// wall-clock; see DESIGN.md §10 for the measured crossover.

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// fftCostFactor calibrates the FFT-path cost estimate against the
// naive path's n·(maxLag+1) multiply-adds: one butterfly (two complex
// mul/adds plus table loads) costs about this many naive inner-loop
// iterations. Measured with BenchmarkAutocorrelogramCrossover: across
// n = 1k..64k the break-even ratio n·maxLag / (L·log₂L) lands between
// 4.5 and 6.2 (see DESIGN.md §10); the exact value only moves the
// crossover by a few percent of runtime, both paths being correct.
const fftCostFactor = 5

// useFFT reports whether the FFT path is predicted to be cheaper than
// the naive sum for a series of length n at lags 0..maxLag.
func useFFT(n, maxLag int) bool {
	l := nextPow2(n + maxLag)
	logL := bits.Len(uint(l)) - 1
	return n*(maxLag+1) > fftCostFactor*l*logL
}

// fftDIF runs an in-place forward radix-2 FFT over the complex series
// (re, im), whose length n must be a power of two, by decimation in
// frequency: natural-order input, bit-reversed output (position p
// holds bin rev(p)). fftDIT is its mirror, decimation in time:
// bit-reversed input, natural-order output. Run back to back they
// need no permutation pass at all.
//
// The twiddle table (twre, twim) is laid out per stage: entries
// [h, 2h) hold e^{-2πik/(2h)} for k in [0, h), so the stage whose
// butterflies span 2h points reads its h twiddles contiguously. A
// table of T/2 entries serves every transform of up to T/2 points.
func fftDIF(re, im, twre, twim []float64) {
	n := len(re)
	im = im[:n]
	for half := n >> 1; half > 1; half >>= 1 {
		wre, wim := twre[half:2*half], twim[half:2*half]
		for start := 0; start < n; start += 2 * half {
			// Reslicing each block's two halves lets the compiler drop
			// the bounds checks from the butterfly loop.
			ur, ui := re[start:start+half], im[start:start+half]
			vr, vi := re[start+half:start+2*half], im[start+half:start+2*half]
			vi = vi[:len(vr)]
			ui = ui[:len(vr)]
			ur = ur[:len(vr)]
			wr, wi := wre[:len(vr)], wim[:len(vr)]
			for k := range vr {
				dr, di := ur[k]-vr[k], ui[k]-vi[k]
				ur[k], ui[k] = ur[k]+vr[k], ui[k]+vi[k]
				vr[k], vi[k] = dr*wr[k]-di*wi[k], dr*wi[k]+di*wr[k]
			}
		}
	}
	// Last stage: every twiddle is 1, so the butterflies need no
	// multiplications.
	for i := 0; i+1 < n; i += 2 {
		ar, ai, br, bi := re[i], im[i], re[i+1], im[i+1]
		re[i], im[i], re[i+1], im[i+1] = ar+br, ai+bi, ar-br, ai-bi
	}
}

// fftDIT is the decimation-in-time forward FFT: bit-reversed input,
// natural-order output, same per-stage twiddle table as fftDIF.
func fftDIT(re, im, twre, twim []float64) {
	n := len(re)
	im = im[:n]
	// First stage: every twiddle is 1.
	for i := 0; i+1 < n; i += 2 {
		ar, ai, br, bi := re[i], im[i], re[i+1], im[i+1]
		re[i], im[i], re[i+1], im[i+1] = ar+br, ai+bi, ar-br, ai-bi
	}
	for half := 2; half < n; half <<= 1 {
		wre, wim := twre[half:2*half], twim[half:2*half]
		for start := 0; start < n; start += 2 * half {
			ur, ui := re[start:start+half], im[start:start+half]
			vr, vi := re[start+half:start+2*half], im[start+half:start+2*half]
			vi = vi[:len(vr)]
			ui = ui[:len(vr)]
			ur = ur[:len(vr)]
			wr, wi := wre[:len(vr)], wim[:len(vr)]
			for k := range vr {
				tr := vr[k]*wr[k] - vi[k]*wi[k]
				ti := vr[k]*wi[k] + vi[k]*wr[k]
				vr[k], vi[k] = ur[k]-tr, ui[k]-ti
				ur[k], ui[k] = ur[k]+tr, ui[k]+ti
			}
		}
	}
}

// Workspace holds the scratch buffers of the autocorrelogram fast
// path: the FFT's complex series and twiddle table, the mean-centered
// input copy, and the output correlogram. A caller that analyzes many
// trains (the detector daemon, the experiment sweeps) holds one
// Workspace and reuses it; after the first call at a given size,
// Workspace.Autocorrelogram performs no allocations at all.
//
// The zero value is ready to use. A Workspace is not safe for
// concurrent use; give each goroutine its own.
type Workspace struct {
	re, im     []float64 // FFT scratch, half the padded length L
	twre, twim []float64 // per-stage twiddle table, length T/2 for the largest padded length T
	centered   []float64 // mean-centered copy of the input
	cden       float64   // energy Σ(x-mean)² of the centered copy
	acf        []float64 // output buffer, returned to the caller
	segAcc     []float64 // Bartlett accumulation buffer (segmented path)

	// Path-selection tallies, read via PathCounts. Plain (non-atomic)
	// because a Workspace is single-goroutine by contract.
	fftCalls, naiveCalls uint64
}

// PathCounts reports how many Autocorrelogram calls took the FFT path
// versus the naive sum — the observability layer publishes these so a
// run can show which side of the crossover its trains landed on.
func (w *Workspace) PathCounts() (fft, naive uint64) {
	return w.fftCalls, w.naiveCalls
}

// ResetCounts zeroes the path-selection tallies. A pooled workspace is
// reset when it is handed to a new owner, so its published counts
// cover exactly that owner's calls — the same numbers a freshly
// allocated workspace would report. Scratch buffers keep their
// capacity; they carry no information across calls.
func (w *Workspace) ResetCounts() {
	w.fftCalls, w.naiveCalls = 0, 0
}

// NewWorkspace returns an empty workspace. Equivalent to new(Workspace);
// provided for call-site readability.
func NewWorkspace() *Workspace { return new(Workspace) }

// grow returns buf resized to n, reusing its capacity when possible.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ensureFFT sizes the complex scratch for a padded length nfft (a
// power of two, at least 2), which runs as an nfft/2-point transform,
// and makes sure the twiddle table covers that transform. The table
// only ever grows: its per-stage entries do not depend on the
// transform size, so one built for the largest length seen serves
// every smaller one unchanged, and window sweeps that alternate
// transform sizes never rebuild it.
func (w *Workspace) ensureFFT(nfft int) {
	m := nfft / 2
	w.re = grow(w.re, m)
	w.im = grow(w.im, m)
	if len(w.twre) < m {
		w.twre = make([]float64, m)
		w.twim = make([]float64, m)
		for h := 1; h < m; h <<= 1 {
			for k := 0; k < h; k++ {
				// Each entry straight from cos/sin: no recurrence, so the
				// table's accuracy does not degrade with transform size.
				ang := -2 * math.Pi * float64(k) / float64(2*h)
				w.twre[h+k] = math.Cos(ang)
				w.twim[h+k] = math.Sin(ang)
			}
		}
	}
}

// Autocorrelogram computes the autocorrelation coefficients for lags
// 0..maxLag inclusive, exactly as the package-level Autocorrelogram,
// selecting the FFT path above the measured crossover and reusing the
// workspace's buffers throughout.
//
// The returned slice is owned by the workspace and is overwritten by
// the next call; callers that keep a correlogram must copy it.
func (w *Workspace) Autocorrelogram(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		maxLag = 0
	}
	w.acf = grow(w.acf, maxLag+1)
	out := w.acf
	w.centered = grow(w.centered, n)
	den := centerInto(w.centered, xs)
	w.cden = den
	if den == 0 {
		for i := range out {
			out[i] = 0 // constant series has no autocorrelation
		}
		return out
	}
	if useFFT(n, maxLag) {
		w.fftCalls++
		w.fftAutocorr(w.centered, den, out)
	} else {
		w.naiveCalls++
		naiveAutocorr(w.centered, den, out)
	}
	return out
}

// SegmentedAutocorrelogram estimates the autocorrelation coefficients
// for lags 0..maxLag by Bartlett averaging: the series is cut into
// consecutive fixed-size segments, each segment's autocorrelogram is
// computed independently (through the same FFT/naive crossover and the
// same scratch buffers), and the per-lag coefficients are averaged.
// The streaming daemon uses this for mid-window estimates: each chunk
// costs O(segLen log segLen) and the estimate refines as chunks
// arrive, without ever holding (or transforming) the whole series. On
// a stationary series the average converges to the full correlogram;
// it is an estimate, not the exact §IV-D statistic, which the window
// close recomputes exactly.
//
// A trailing partial segment shorter than segLen is dropped; maxLag is
// clamped below segLen. When the series is shorter than one segment
// (or segLen is zero) the call falls through to the exact
// Autocorrelogram. The returned slice is owned by the workspace and is
// overwritten by the next segmented call.
func (w *Workspace) SegmentedAutocorrelogram(xs []float64, segLen, maxLag int) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if segLen <= 0 || segLen >= n {
		return w.Autocorrelogram(xs, maxLag)
	}
	if maxLag >= segLen {
		maxLag = segLen - 1
	}
	if maxLag < 0 {
		maxLag = 0
	}
	w.segAcc = grow(w.segAcc, maxLag+1)
	acc := w.segAcc
	for i := range acc {
		acc[i] = 0
	}
	segments := 0
	for start := 0; start+segLen <= n; start += segLen {
		acf := w.Autocorrelogram(xs[start:start+segLen], maxLag)
		for p, v := range acf {
			acc[p] += v
		}
		segments++
	}
	inv := 1 / float64(segments)
	for p := range acc {
		acc[p] *= inv
	}
	return acc
}

// CenteredAutocorrelation returns r_p of the series most recently
// passed to Autocorrelogram, reusing its mean-centered copy and
// energy. The value is bit-identical to Autocorrelation(series, p):
// the centered entries are the very (x−mean) differences that call
// would recompute, and the numerator accumulates over ascending i in
// the same order, so every IEEE operation matches. The oscillation
// detector uses this for harmonic probes beyond the correlogram's
// maxLag, which previously re-derived the mean and the energy for
// every probed lag (≈40% of the cache-channel figure's profile).
func (w *Workspace) CenteredAutocorrelation(p int) float64 {
	n := len(w.centered)
	if p < 0 || p >= n || w.cden == 0 {
		return 0
	}
	c := w.centered
	var num float64
	for i := 0; i+p < n; i++ {
		num += c[i] * c[i+p]
	}
	return num / w.cden
}

// fftAutocorr fills out[p] = r_p for the centered series via the
// Wiener–Khinchin theorem. Zero-padding to L >= n+maxLag keeps the
// circular correlation's wraparound terms out of the lags we read: the
// alias of lag p lands at lag L-p, which stays above maxLag for every
// p <= maxLag. Both paths normalize by the directly computed energy
// den = Σd² (not the FFT's own c[0]), so they agree to roundoff and
// degrade identically on near-constant series.
//
// The series is real, so both transforms run at half length M = L/2.
// The forward pass packs even samples into re and odd samples into im,
// transforms once, and a split step recovers the power spectrum
// |X[k]|² for k = 0..M. That spectrum is real and even, so the inverse
// transform's output is real too: the same split run backwards folds
// the spectrum into M complex bins whose inverse transform carries the
// even lags in re and the odd lags in im. The inverse is taken as the
// conjugate of a forward transform of the conjugate, so both passes
// are forward transforms. The first is fftDIF, which leaves the bins
// in bit-reversed order; the fold works in that order, and fftDIT
// takes it back to natural order, so the series is never permuted.
func (w *Workspace) fftAutocorr(centered []float64, den float64, out []float64) {
	n := len(centered)
	maxLag := len(out) - 1
	nfft := nextPow2(n + maxLag) // >= 2: a non-constant series has n >= 2
	w.ensureFFT(nfft)
	m := nfft / 2
	re, im := w.re, w.im
	for i := range re {
		var a, b float64
		if 2*i < n {
			a = centered[2*i]
		}
		if 2*i+1 < n {
			b = centered[2*i+1]
		}
		re[i], im[i] = a, b
	}
	fftDIF(re, im, w.twre, w.twim)
	// Fold bin pairs (k, m-k) in place, at the bit-reversed positions
	// fftDIF left them in. Position 0 holds Z[0] and position 1 holds
	// Z[m/2], each its own partner; a position p in the octave
	// [2^j, 2^(j+1)) pairs with 3·2^j-1-p, whose low j bits are p's
	// complemented. Of each pair the even position holds the bin
	// k = rev(p) < m/2, so a walk over even p covers every pair once,
	// tracking rev(p) with a reversed-order increment. The fold needs
	// w^k = e^{-2πik/(2m)}: the m/2 stage of the table holds it for
	// even k, and for odd k (the top octave) its entry for k-1 times
	// e^{-iπ/m}.
	half := m / 2
	stepR, stepI := math.Cos(math.Pi/float64(m)), -math.Sin(math.Pi/float64(m))
	foldPair(re, im, 0, 0, 1, 0)
	if m >= 2 {
		wr, wi := foldTwiddle(w.twre, w.twim, half, half, stepR, stepI)
		foldPair(re, im, 1, 1, wr, wi)
	}
	oct, k := 2, 0
	for p := 2; p < m; p += 2 {
		bit := m >> 2
		for ; k&bit != 0; bit >>= 1 {
			k ^= bit
		}
		k |= bit
		if p == oct<<1 {
			oct = p
		}
		wr, wi := foldTwiddle(w.twre, w.twim, half, k, stepR, stepI)
		foldPair(re, im, p, 3*oct-1-p, wr, wi)
	}
	fftDIT(re, im, w.twre, w.twim)
	// The fold carries a factor 8 (four from squaring the doubled E and
	// O, two from the unhalved s and d); the inverse transform's 1/m
	// joins it. Both are powers of two, so folding them into the
	// divisor costs no precision.
	scale := float64(8*m) * den
	for p := 0; p <= maxLag; p++ {
		if p&1 == 0 {
			out[p] = re[p>>1] / scale
		} else {
			out[p] = -im[p>>1] / scale
		}
	}
}

// foldTwiddle returns w^k = e^{-2πik/(2m)} for 0 < k <= m/2, where
// half = m/2 indexes the table's m/2 stage and (stepR, stepI) is
// e^{-iπ/m}.
func foldTwiddle(twre, twim []float64, half, k int, stepR, stepI float64) (float64, float64) {
	wr, wi := twre[half+k>>1], twim[half+k>>1]
	if k&1 != 0 {
		wr, wi = wr*stepR-wi*stepI, wr*stepI+wi*stepR
	}
	return wr, wi
}

// foldPair runs the split, square and fold step on the bins Z[k] at
// position p and Z[m-k] at position q (q = p when k = m-k mod m). With
// a = Z[k] and b = Z[m-k] of the packed transform, the even- and
// odd-sample spectra are E = a + b̄ and O = -i(a - b̄) (both doubled),
// so X[k] = (E + w^k·O)/2 and X[m-k] is the conjugate of
// (E - w^k·O)/2. The fold turns the power pair (P[k], P[m-k]) into the
// packed inverse input s + i·d·w^-k at k and s + i·d·w^k at m-k, with
// s = P[k]+P[m-k] and d = P[k]-P[m-k], stored conjugated for the
// forward-kernel inverse. Every factor of two lands in fftAutocorr's
// final scale.
func foldPair(re, im []float64, p, q int, wr, wi float64) {
	ar, ai, br, bim := re[p], im[p], re[q], im[q]
	er, ei := ar+br, ai-bim
	or, oi := ai+bim, br-ar
	tr := wr*or - wi*oi
	ti := wr*oi + wi*or
	pk := (er+tr)*(er+tr) + (ei+ti)*(ei+ti)
	pj := (er-tr)*(er-tr) + (ei-ti)*(ei-ti)
	s, d := pk+pj, pk-pj
	re[q], im[q] = s-d*wi, -d*wr
	re[p], im[p] = s+d*wi, -d*wr
}

// naiveAutocorr is the direct §IV-D sum over a centered series, shared
// by the small-input path and the FFT oracle tests.
func naiveAutocorr(centered []float64, den float64, out []float64) {
	n := len(centered)
	for p := range out {
		var num float64
		for i := 0; i+p < n; i++ {
			num += centered[i] * centered[i+p]
		}
		out[p] = num / den
	}
}

// centerInto writes xs - mean(xs) into dst (which must have the same
// length) and returns the energy Σ(x-mean)² — the §IV-D denominator —
// in the same pass.
func centerInto(dst, xs []float64) float64 {
	m := Mean(xs)
	var den float64
	for i, x := range xs {
		d := x - m
		dst[i] = d
		den += d * d
	}
	return den
}

// AutocorrelogramNaive always takes the direct O(n·maxLag) path. It is
// the property-test oracle for the FFT path and the baseline the
// BenchmarkAutocorrelogram speedup is measured against; detection code
// should call Autocorrelogram (or a Workspace), which select the
// faster path automatically.
func AutocorrelogramNaive(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		maxLag = 0
	}
	out := make([]float64, maxLag+1)
	centered := make([]float64, n)
	den := centerInto(centered, xs)
	if den == 0 {
		return out
	}
	naiveAutocorr(centered, den, out)
	return out
}
