package segment

import "hash/fnv"

// bloomBitsPerKey sizes filters at ~10 bits per key, which with k=4
// probes gives a false-positive rate of about 1.2% — cheap enough that a
// false "maybe" costs one wasted page scan, never a wrong answer.
const (
	bloomBitsPerKey = 10
	bloomProbes     = 4
)

// Bloom is a split (Kirsch–Mitzenmacher) bloom filter over strings: one
// FNV-64a hash split into two 32-bit halves drives all k probe positions.
// The bit array length is a power of two so probes reduce with a mask.
type Bloom struct {
	Bits []byte `json:"bits"` // JSON-marshals as base64
	K    int    `json:"k"`
}

// newBloom returns a filter sized for n keys (minimum 64 bits).
func newBloom(n int) *Bloom {
	bits := 64
	for bits < n*bloomBitsPerKey {
		bits <<= 1
	}
	return &Bloom{Bits: make([]byte, bits/8), K: bloomProbes}
}

// valid reports whether a filter read from disk is usable: present, with
// 1..16 probes and a power-of-two bit length 32-bit positions address.
func (b *Bloom) valid() bool {
	n := len(b.Bits)
	return b.K >= 1 && b.K <= 16 && n > 0 && n <= 1<<29 && n&(n-1) == 0
}

func bloomHash(s string) (uint32, uint32) {
	h := fnv.New64a()
	h.Write([]byte(s))
	v := h.Sum64()
	// The second half is forced odd so successive probes never collapse
	// onto one position for power-of-two array sizes.
	return uint32(v >> 32), uint32(v) | 1
}

// Add inserts s.
func (b *Bloom) Add(s string) {
	h1, h2 := bloomHash(s)
	mask := uint32(len(b.Bits)*8 - 1)
	for i := 0; i < b.K; i++ {
		pos := (h1 + uint32(i)*h2) & mask
		b.Bits[pos>>3] |= 1 << (pos & 7)
	}
}

// MayContain reports whether s may have been added: false is definitive,
// true is probabilistic. A nil or empty filter says true (no evidence).
func (b *Bloom) MayContain(s string) bool {
	if b == nil || len(b.Bits) == 0 {
		return true
	}
	h1, h2 := bloomHash(s)
	mask := uint32(len(b.Bits)*8 - 1)
	for i := 0; i < b.K; i++ {
		pos := (h1 + uint32(i)*h2) & mask
		if b.Bits[pos>>3]&(1<<(pos&7)) == 0 {
			return false
		}
	}
	return true
}
