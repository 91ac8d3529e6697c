package bloom

import "fmt"

// BankFilters is the number of filters a Bank holds: one per bit of a
// position's nibble, matching the practical tracker's four
// generations.
const BankFilters = 4

// nibbleLow has the lowest bit of every nibble set; shifted left by g
// it selects filter g's bit at all 16 positions of a word.
const nibbleLow = 0x1111111111111111

// Bank is four same-geometry Bloom filters stored bit-sliced: one
// nibble per bit position, 16 positions per word, where bit g of
// position p's nibble is filter g's bit p. The filters share the
// Kirsch-Mitzenmacher positions of Filter, so a key is hashed once
// and one word load per position serves all four filters: a probe
// ANDs the key's k nibbles, and bit g of the result is exactly
// filter g's Contains. The zero value is not usable; use NewBank.
type Bank struct {
	nibbles []uint64
	nbits   uint64
	hashes  int
}

// NewBank returns a bank of BankFilters filters of nbits bits and k
// hash functions each. nbits is rounded up to a multiple of 64, as in
// New, so a bank and a Filter built from the same arguments place
// every key at the same positions.
func NewBank(nbits, k int) (*Bank, error) {
	if nbits <= 0 {
		return nil, fmt.Errorf("%w: bank needs a positive number of bits, got %d", ErrBadConfig, nbits)
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: bank needs at least one hash function, got %d", ErrBadConfig, k)
	}
	words := (nbits + 63) / 64
	return &Bank{
		nibbles: make([]uint64, words*64/16),
		nbits:   uint64(words * 64),
		hashes:  k,
	}, nil
}

// MustNewBank is NewBank for sizes known to be valid; it panics on
// error.
func MustNewBank(nbits, k int) *Bank {
	b, err := NewBank(nbits, k)
	if err != nil {
		panic(err)
	}
	return b
}

// Probe returns the set of filters that may contain key: bit g is set
// when filter g has all of key's positions. It stops at the first
// position no filter has, which is where most absent keys end.
func (b *Bank) Probe(key uint64) uint8 {
	h1, h2 := doubleHash(key)
	m := uint64(1<<BankFilters - 1)
	for i := 0; i < b.hashes && m != 0; i++ {
		p := reduce(h1+uint64(i)*h2, b.nbits)
		m &= b.nibbles[p>>4] >> (p & 15 << 2)
	}
	return uint8(m)
}

// Add inserts key into filter g.
func (b *Bank) Add(g int, key uint64) {
	h1, h2 := doubleHash(key)
	for i := 0; i < b.hashes; i++ {
		p := reduce(h1+uint64(i)*h2, b.nbits)
		b.nibbles[p>>4] |= 1 << (uint(g) + uint(p&15<<2))
	}
}

// Clear flash-clears filter g, leaving the others intact.
func (b *Bank) Clear(g int) {
	m := uint64(nibbleLow) << uint(g)
	for i := range b.nibbles {
		b.nibbles[i] &^= m
	}
}

// Reset clears every filter.
func (b *Bank) Reset() { clear(b.nibbles) }

// Bits returns the size of each filter in bits.
func (b *Bank) Bits() int { return int(b.nbits) }
