package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestCopyBitsMatchesBitLoop pins the byte-wise CopyBits to the bit-at-a-time
// loop it replaced, for every source and destination phase, every length up
// to 300 bits, and calls that run off either buffer.
func TestCopyBitsMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 48)
	rng.Read(src)
	init := make([]byte, 48)
	rng.Read(init)
	got, want := make([]byte, len(init)), make([]byte, len(init))
	check := func(dstPos, srcPos, n int64) {
		t.Helper()
		copy(got, init)
		copy(want, init)
		CopyBits(got, dstPos, src, srcPos, n)
		copyBitsLoop(want, dstPos, src, srcPos, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("CopyBits(dst, %d, src, %d, %d) = % x, bit loop % x", dstPos, srcPos, n, got, want)
		}
	}
	for sp := int64(0); sp < 24; sp++ {
		for dp := int64(0); dp < 24; dp++ {
			for n := int64(0); n <= 300; n++ {
				check(dp, sp, n)
			}
		}
	}
	bits := int64(len(src)) * 8
	for _, tc := range [][3]int64{
		{-5, 0, 40}, {0, -5, 40}, {-17, -3, 100}, // start before a buffer
		{bits - 20, 0, 40}, {0, bits - 20, 40}, // run off the end
		{bits, 0, 8}, {0, bits, 8}, {bits + 9, bits + 3, 16}, // wholly outside
		{3, 5, -1}, {0, 0, bits}, {1, 1, bits - 1}, {7, 0, bits - 7}, // negative n, exact fits
	} {
		check(tc[0], tc[1], tc[2])
	}
}
