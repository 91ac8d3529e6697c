package bloom

import (
	"errors"
	"testing"

	"cchunter/internal/stats"
)

// checkBankMatchesFilters compares b's probe mask with the four
// reference filters' Contains on n random keys.
func checkBankMatchesFilters(t *testing.T, b *Bank, filters []*Filter, r *stats.RNG, n int, keys []uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := r.Uint64()
		if i%2 == 0 {
			key = keys[r.Intn(len(keys))]
		}
		want := uint8(0)
		for g, f := range filters {
			if f.Contains(key) {
				want |= 1 << g
			}
		}
		if got := b.Probe(key); got != want {
			t.Fatalf("key %x: bank probe mask %04b, per-filter Contains %04b", key, got, want)
		}
	}
}

// TestBankProbeMatchesPerFilterContains pins the bit-sliced bank
// against four separate Filters of the same geometry: after random
// adds, flash-clears of single filters and a full reset, the probe
// mask of every key equals the per-filter Contains bits. Keys are
// drawn half from the added set and half at random, and the small
// sizes fill up, so both present keys and false positives are
// compared. 192 bits exercises the modulo reduction.
func TestBankProbeMatchesPerFilterContains(t *testing.T) {
	for _, nbits := range []int{64, 192, 1024, 16384} {
		for k := 1; k <= 4; k++ {
			r := stats.NewRNG(uint64(nbits*8 + k))
			b := MustNewBank(nbits, k)
			filters := make([]*Filter, BankFilters)
			for g := range filters {
				filters[g] = MustNew(nbits, k)
			}
			var keys []uint64
			for round := 0; round < 6; round++ {
				for i := 0; i < nbits/16; i++ {
					key, g := r.Uint64(), r.Intn(BankFilters)
					b.Add(g, key)
					filters[g].Add(key)
					keys = append(keys, key)
				}
				checkBankMatchesFilters(t, b, filters, r, 500, keys)
				g := r.Intn(BankFilters)
				b.Clear(g)
				filters[g].Clear()
				checkBankMatchesFilters(t, b, filters, r, 500, keys)
			}
			b.Reset()
			for _, f := range filters {
				f.Clear()
			}
			checkBankMatchesFilters(t, b, filters, r, 500, keys)
			if b.Bits() != filters[0].Bits() {
				t.Errorf("nbits %d: bank Bits %d, filter Bits %d", nbits, b.Bits(), filters[0].Bits())
			}
		}
	}
}

func TestNewBankErrors(t *testing.T) {
	for name, f := range map[string]func() error{
		"zero bits":   func() error { _, err := NewBank(0, 3); return err },
		"zero hashes": func() error { _, err := NewBank(64, 0); return err },
	} {
		if err := f(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewBank(-1, 3) did not panic")
		}
	}()
	MustNewBank(-1, 3)
}
