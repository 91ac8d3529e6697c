package stats

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

// maxAbsDiff returns the largest absolute element difference.
func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// forceFFT runs the workspace FFT path regardless of the crossover so
// small fuzz inputs still exercise it.
func forceFFT(xs []float64, maxLag int) []float64 {
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
	var w Workspace
	out := make([]float64, maxLag+1)
	centered := make([]float64, n)
	den := centerInto(centered, xs)
	if den == 0 {
		return out
	}
	w.fftAutocorr(centered, den, out)
	return out
}

func TestFFTMatchesNaiveOnPeriodicSeries(t *testing.T) {
	// Period-24 square wave, deliberately non-power-of-two length.
	xs := make([]float64, 3000)
	for i := range xs {
		if i%24 < 12 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	want := AutocorrelogramNaive(xs, 300)
	got := forceFFT(xs, 300)
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("fft vs naive diverge by %g", d)
	}
	// And the auto-selecting entry points agree with both.
	if d := maxAbsDiff(Autocorrelogram(xs, 300), want); d > 1e-9 {
		t.Fatalf("Autocorrelogram vs naive diverge by %g", d)
	}
}

func TestFFTConstantSeriesIsAllZeros(t *testing.T) {
	xs := make([]float64, 777)
	for i := range xs {
		xs[i] = 3.25
	}
	for _, acf := range [][]float64{forceFFT(xs, 100), Autocorrelogram(xs, 100)} {
		for p, v := range acf {
			if v != 0 {
				t.Fatalf("constant series acf[%d] = %v, want 0", p, v)
			}
		}
	}
}

func TestWorkspaceReuseAcrossSizes(t *testing.T) {
	// Shrinking, growing, and repeating sizes must all stay correct:
	// the scratch buffers and twiddle tables resize on the fly.
	w := NewWorkspace()
	r := NewRNG(5)
	for _, n := range []int{64, 4097, 129, 4097, 1 << 12, 33} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Sin(float64(i)/7) + r.NormFloat64()/8
		}
		maxLag := n / 3
		got := append([]float64(nil), w.Autocorrelogram(xs, maxLag)...)
		want := AutocorrelogramNaive(xs, maxLag)
		if len(got) != len(want) {
			t.Fatalf("n=%d: len %d vs %d", n, len(got), len(want))
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("n=%d: workspace vs naive diverge by %g", n, d)
		}
	}
}

func TestWorkspaceZeroAllocsAfterWarmup(t *testing.T) {
	w := NewWorkspace()
	xs := make([]float64, 1<<14)
	for i := range xs {
		xs[i] = float64(i%37) - 18
	}
	w.Autocorrelogram(xs, 1024) // warm the buffers
	allocs := testing.AllocsPerRun(10, func() {
		w.Autocorrelogram(xs, 1024)
	})
	if allocs != 0 {
		t.Fatalf("workspace path allocated %v times per run, want 0", allocs)
	}
}

func TestUseFFTPrefersNaiveForTinyLagBudgets(t *testing.T) {
	// A long series with a handful of lags is exactly where the naive
	// sum stays cheaper than a million-point transform.
	if useFFT(1<<20, 2) {
		t.Error("useFFT chose the FFT for 2 lags over a 1M series")
	}
	if !useFFT(1<<16, 4096) {
		t.Error("useFFT refused the FFT at paper-scale train length")
	}
}

// FuzzAutocorrFFTMatchesNaive is the property test of the tentpole:
// the FFT and naive autocorrelograms agree within 1e-9 on arbitrary
// series — random lengths, non-power-of-two sizes, constant runs. The
// comparison is meaningful at any input scale because both paths
// normalize by the same directly-computed energy, making FFT roundoff
// relative to the coefficients, not the raw samples.
func FuzzAutocorrFFTMatchesNaive(f *testing.F) {
	encode := func(xs []float64) []byte {
		out := make([]byte, 8*len(xs))
		for i, v := range xs {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return out
	}
	square := make([]float64, 100) // non-power-of-two on purpose
	constant := make([]float64, 65)
	ramp := make([]float64, 33)
	for i := range square {
		if i%10 < 5 {
			square[i] = 1
		}
	}
	for i := range constant {
		constant[i] = -2.5
	}
	for i := range ramp {
		ramp[i] = float64(i)
	}
	f.Add(encode(square), 30)
	f.Add(encode(constant), 64)
	f.Add(encode(ramp), 7)
	f.Add(encode([]float64{1}), 0)
	f.Add(encode(nil), 5)

	f.Fuzz(func(t *testing.T, data []byte, maxLag int) {
		xs := decodeSeries(data)
		if maxLag < 0 {
			maxLag = -maxLag
		}
		maxLag %= 1 << 13
		want := AutocorrelogramNaive(xs, maxLag)
		got := forceFFT(xs, maxLag)
		if len(got) != len(want) {
			t.Fatalf("length mismatch: fft %d, naive %d", len(got), len(want))
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("fft vs naive diverge by %g (%d samples, maxLag %d)",
				d, len(xs), maxLag)
		}
		auto := Autocorrelogram(xs, maxLag)
		if d := maxAbsDiff(auto, want); d > 1e-9 {
			t.Fatalf("auto-selected path diverges by %g", d)
		}
	})
}

// TestCorrelogramIndependentOfWorkspaceHistory: the per-stage twiddle
// table holds the same values whatever transform sizes a workspace
// served before, so a workspace that first ran a 2^20-point
// correlogram returns the same bits for 1,000-, 1,500- and 2,500-point
// series as a fresh workspace per size. The first fixture pads to the
// largest size the table serves, so the fold's odd-k twiddles come from
// the table's top stage. The table never holds more than T/2 entries
// per part for the largest padded length T.
func TestCorrelogramIndependentOfWorkspaceHistory(t *testing.T) {
	const bigN = 1 << 20
	r := NewRNG(11)
	shared := NewWorkspace()
	for _, tc := range []struct{ n, maxLag, nfft int }{
		{bigN/2 + 1, bigN/2 - 1, bigN}, {1000, 1000, 2048}, {1500, 1000, 4096}, {2500, 1000, 4096},
	} {
		if got := nextPow2(tc.n + min(tc.maxLag, tc.n-1)); got != tc.nfft {
			t.Fatalf("n=%d: fixture pads to %d, want %d", tc.n, got, tc.nfft)
		}
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = math.Cos(float64(i)/5) + r.NormFloat64()/4
		}
		got := append([]float64(nil), shared.Autocorrelogram(xs, tc.maxLag)...)
		want := NewWorkspace().Autocorrelogram(xs, tc.maxLag)
		for p := range want {
			if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
				t.Fatalf("n=%d (%d-point): lag %d = %v, fresh workspace gives %v",
					tc.n, tc.nfft, p, got[p], want[p])
			}
		}
		if tc.n < 4096 {
			if d := maxAbsDiff(want, AutocorrelogramNaive(xs, tc.maxLag)); d > 1e-9 {
				t.Fatalf("n=%d: fft vs naive diverge by %g", tc.n, d)
			}
		}
	}
	if fft, naive := shared.PathCounts(); fft != 4 || naive != 0 {
		t.Fatalf("shared workspace paths: %d fft, %d naive; want 4 fft", fft, naive)
	}
	for name, part := range map[string][]float64{"re": shared.twre, "im": shared.twim} {
		if len(part) > bigN/2 || cap(part) > bigN/2 {
			t.Errorf("twiddle %s part holds %d entries (cap %d), want at most %d",
				name, len(part), cap(part), bigN/2)
		}
	}
}

// TestRealInputFFTTinyAndOddLengths: the half-length real-input
// transform packs sample pairs, so tiny series and odd lengths (whose
// last sample has no partner) must still match the naive sum at every
// lag up to n-1.
func TestRealInputFFTTinyAndOddLengths(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{1, 2, 3, 5, 7, 9, 31, 33, 101, 255, 1001, 4097} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() + float64(i%3)
		}
		for _, maxLag := range []int{0, 1, n / 2, n - 1} {
			want := AutocorrelogramNaive(xs, maxLag)
			got := forceFFT(xs, maxLag)
			if len(got) != len(want) {
				t.Fatalf("n=%d maxLag=%d: len %d vs %d", n, maxLag, len(got), len(want))
			}
			if d := maxAbsDiff(got, want); d > 1e-9 {
				t.Errorf("n=%d maxLag=%d: real-input FFT vs naive diverge by %g", n, maxLag, d)
			}
		}
	}
}

// naiveDFT returns the forward DFT of (re, im) by the O(n²) sum, each
// twiddle read from a table of sin/cos of the reduced index jk mod n.
func naiveDFT(re, im []float64) (outRe, outIm []float64) {
	n := len(re)
	cos, sin := make([]float64, n), make([]float64, n)
	for t := range cos {
		sin[t], cos[t] = math.Sincos(-2 * math.Pi * float64(t) / float64(n))
	}
	outRe, outIm = make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		var sr, si float64
		for j := 0; j < n; j++ {
			c, s := cos[j*k%n], sin[j*k%n]
			sr += re[j]*c - im[j]*s
			si += re[j]*s + im[j]*c
		}
		outRe[k], outIm[k] = sr, si
	}
	return outRe, outIm
}

// FuzzFFTKernelsMatchDFT holds the two permutation-free kernels to a
// naive DFT for every size 2^0..2^12: fftDIF's output at position p is
// bin rev(p), and fftDIT maps the bit-reversed input back to the DFT in
// natural order. Run on fftDIF's output, fftDIT transforms the
// spectrum again, which gives n·x[-k mod n]. Errors are measured
// relative to the series' L1 norm, which bounds every bin, at the
// tolerance of FuzzAutocorrFFTMatchesNaive.
func FuzzFFTKernelsMatchDFT(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 240, 63}, uint8(5))
	f.Add(make([]byte, 64), uint8(10))
	f.Add([]byte{7}, uint8(12))
	f.Fuzz(func(t *testing.T, data []byte, logN uint8) {
		lg := int(logN % 13)
		n := 1 << lg
		xs := decodeSeries(data)
		r := NewRNG(uint64(lg) + 1)
		re, im := make([]float64, n), make([]float64, n)
		var norm float64
		for i := range re {
			for _, dst := range []*float64{&re[i], &im[i]} {
				if len(xs) > 0 {
					*dst, xs = xs[0], xs[1:]
				} else {
					*dst = r.NormFloat64()
				}
				norm += math.Abs(*dst)
			}
		}
		if norm == 0 {
			norm = 1
		}
		rev := func(p int) int { return int(bits.Reverse(uint(p)) >> (bits.UintSize - lg) & uint(n-1)) }
		var w Workspace
		w.ensureFFT(2 * n)
		wantRe, wantIm := naiveDFT(re, im)

		// DIT on the bit-reversed input: the DFT in natural order.
		dr, di := make([]float64, n), make([]float64, n)
		for p := range dr {
			dr[p], di[p] = re[rev(p)], im[rev(p)]
		}
		fftDIT(dr, di, w.twre, w.twim)
		for k := range dr {
			if e := math.Hypot(dr[k]-wantRe[k], di[k]-wantIm[k]) / norm; e > 1e-9 {
				t.Fatalf("n=%d: DIT bin %d off the DFT by %g of the L1 norm", n, k, e)
			}
		}

		// DIF: position p holds bin rev(p).
		fr, fi := append([]float64(nil), re...), append([]float64(nil), im...)
		fftDIF(fr, fi, w.twre, w.twim)
		for p := range fr {
			k := rev(p)
			if e := math.Hypot(fr[p]-wantRe[k], fi[p]-wantIm[k]) / norm; e > 1e-9 {
				t.Fatalf("n=%d: DIF position %d (bin %d) off the DFT by %g of the L1 norm", n, p, k, e)
			}
		}

		// DIT after DIF transforms the spectrum again: n·x[-k mod n].
		fftDIT(fr, fi, w.twre, w.twim)
		for k := range fr {
			j := (n - k) % n
			if e := math.Hypot(fr[k]-float64(n)*re[j], fi[k]-float64(n)*im[j]) / (float64(n) * norm); e > 1e-9 {
				t.Fatalf("n=%d: DIF then DIT bin %d off n·x[%d] by %g of n·L1", n, k, j, e)
			}
		}
	})
}
