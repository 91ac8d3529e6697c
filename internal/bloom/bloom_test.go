package bloom

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cchunter/internal/stats"
)

func TestNoFalseNegatives(t *testing.T) {
	f := MustNew(4096, 3)
	r := stats.NewRNG(1)
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = r.Uint64()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for key %x", k)
		}
	}
	if f.Added() != 200 {
		t.Errorf("Added = %d, want 200", f.Added())
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	fn := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		f := MustNew(64+r.Intn(2048), 1+r.Intn(4))
		n := r.Intn(100)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = r.Uint64()
			f.Add(keys[i])
		}
		for _, k := range keys {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	// 4 bits per key with k=3: classical FPR ~14.7%. Verify empirical
	// FPR is in the right ballpark and the estimator is close to it.
	f := MustNew(4096, 3)
	r := stats.NewRNG(2)
	for i := 0; i < 1024; i++ {
		f.Add(r.Uint64())
	}
	fp := 0
	trials := 20000
	for i := 0; i < trials; i++ {
		if f.Contains(r.Uint64()) {
			fp++
		}
	}
	got := float64(fp) / float64(trials)
	if got > 0.25 {
		t.Errorf("empirical FPR %.3f too high for 4 bits/key", got)
	}
	est := f.EstimatedFPR()
	if math.Abs(got-est) > 0.08 {
		t.Errorf("estimator %.3f far from empirical %.3f", est, got)
	}
}

func TestClear(t *testing.T) {
	f := MustNew(256, 3)
	f.Add(42)
	f.Clear()
	if f.Added() != 0 {
		t.Errorf("Added after Clear = %d", f.Added())
	}
	if f.FillRatio() != 0 {
		t.Errorf("FillRatio after Clear = %v", f.FillRatio())
	}
	// A cleared filter behaves like a fresh one (42 very likely absent;
	// with 3 hashes over 256 zeroed bits it is guaranteed absent).
	if f.Contains(42) {
		t.Error("cleared filter still contains key")
	}
}

func TestSizeRounding(t *testing.T) {
	f := MustNew(65, 2)
	if f.Bits() != 128 {
		t.Errorf("Bits = %d, want 128 (rounded up to word)", f.Bits())
	}
	if f.Hashes() != 2 {
		t.Errorf("Hashes = %d", f.Hashes())
	}
}

func TestConstructorErrors(t *testing.T) {
	for name, fn := range map[string]func() (*Filter, error){
		"zero bits":   func() (*Filter, error) { return New(0, 3) },
		"zero hashes": func() (*Filter, error) { return New(64, 0) },
	} {
		f, err := fn()
		if err == nil || f != nil {
			t.Errorf("%s: expected error, got %v", name, f)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(0, 3)
}

func TestExpNeg(t *testing.T) {
	for _, x := range []float64{0, 0.1, 0.5, 1, 3, 10} {
		want := math.Exp(-x)
		if got := expNeg(x); math.Abs(got-want) > 1e-6 {
			t.Errorf("expNeg(%v) = %v, want %v", x, got, want)
		}
	}
	if got := expNeg(-1); math.Abs(got-math.E) > 1e-6 {
		t.Errorf("expNeg(-1) = %v, want e", got)
	}
}

func TestFillRatioMonotone(t *testing.T) {
	f := MustNew(1024, 3)
	r := stats.NewRNG(3)
	prev := 0.0
	for i := 0; i < 100; i++ {
		f.Add(r.Uint64())
		fr := f.FillRatio()
		if fr < prev {
			t.Fatal("fill ratio decreased after Add")
		}
		prev = fr
	}
	if prev <= 0 || prev > 1 {
		t.Errorf("final fill ratio %v out of range", prev)
	}
}

func TestString(t *testing.T) {
	f := MustNew(128, 3)
	f.Add(1)
	if s := f.String(); s == "" {
		t.Error("String empty")
	}
}

// modPositions is the double-hash position rule written with the plain
// modulo, the reference for both of reduce's paths.
func modPositions(key, nbits uint64, k int) []uint64 {
	h1 := mix64(key)
	h2 := mix64(key^0x9e3779b97f4a7c15) | 1
	out := make([]uint64, k)
	for i := range out {
		out[i] = (h1 + uint64(i)*h2) % nbits
	}
	return out
}

// TestProbePositionsMatchModulo pins the power-of-two mask path to the
// modulo it replaces, and checks that a 192-bit filter, where the mask
// would be wrong, still reduces by modulo.
func TestProbePositionsMatchModulo(t *testing.T) {
	r := stats.NewRNG(9)
	for _, nbits := range []int{64, 128, 1024, 16384, 192} {
		for k := 1; k <= 4; k++ {
			f := MustNew(nbits, k)
			maskDiffers := false
			for i := 0; i < 2000; i++ {
				key := r.Uint64()
				got := f.indexes(key, nil)
				want := modPositions(key, uint64(nbits), k)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("nbits %d k %d key %x: position %d = %d, want %d", nbits, k, key, j, got[j], want[j])
					}
				}
				h1 := mix64(key)
				maskDiffers = maskDiffers || h1&uint64(nbits-1) != h1%uint64(nbits)
			}
			if pow2 := nbits&(nbits-1) == 0; pow2 == maskDiffers {
				t.Errorf("nbits %d: masking differs from modulo = %v, want %v", nbits, maskDiffers, !pow2)
			}
		}
	}
}
