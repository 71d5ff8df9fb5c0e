package transform

import (
	"math/rand"
	"testing"
)

// The reference forms below are the per-coefficient posClass kernels the
// per-QP scale tables replaced; the tables must reproduce them bit for bit.

func refQuantize(y *Block, qp int, intra bool) Block {
	qp = clampQP(qp)
	mf := mfTable[qp%6]
	qbits := uint(15 + qp/6)
	f := int64(1) << qbits / 6
	if intra {
		f = int64(1) << qbits / 3
	}
	var z Block
	for i := range y {
		m := int64(mf[posClass(i)])
		v := int64(y[i])
		neg := v < 0
		if neg {
			v = -v
		}
		q := (v*m + f) >> qbits
		if neg {
			q = -q
		}
		z[i] = int32(q)
	}
	return z
}

func refDequantize(z *Block, qp int) Block {
	qp = clampQP(qp)
	v := vTable[qp%6]
	shift := uint(qp / 6)
	var w Block
	for i := range z {
		w[i] = z[i] * v[posClass(i)] << shift
	}
	return w
}

// decodedLevelBound mirrors the codec's clamp on decoded levels; corrupt
// streams reach it, and the inverse transform then wraps int32.
const decodedLevelBound = 1 << 15

// equivBlocks returns random blocks, the zero block, sparse single-level
// blocks and blocks saturated at ±decodedLevelBound.
func equivBlocks() []Block {
	rng := rand.New(rand.NewSource(7))
	blocks := []Block{{}}
	for trial := 0; trial < 200; trial++ {
		blocks = append(blocks, randResidual(rng, 40))
		var sparse Block
		sparse[rng.Intn(16)] = rng.Int31n(2*decodedLevelBound+1) - decodedLevelBound
		blocks = append(blocks, sparse)
	}
	var hi, lo, alt Block
	for i := range hi {
		hi[i], lo[i] = decodedLevelBound, -decodedLevelBound
		alt[i] = decodedLevelBound
		if i%2 == 1 {
			alt[i] = -decodedLevelBound
		}
	}
	return append(blocks, hi, lo, alt)
}

func TestScaleTablesMatchReference(t *testing.T) {
	blocks := equivBlocks()
	for qp := 0; qp <= MaxQP; qp++ {
		for bi := range blocks {
			z := &blocks[bi]
			want := refDequantize(z, qp)
			if got := Dequantize(z, qp); got != want {
				t.Fatalf("qp %d block %d: Dequantize %v, reference %v", qp, bi, got, want)
			}
			wantX := Inverse(&want)
			if got := Reconstruct(z, qp); got != wantX {
				t.Fatalf("qp %d block %d: Reconstruct %v, reference %v", qp, bi, got, wantX)
			}
			var into Block
			into[3] = 99 // stale content must be overwritten
			nonZero := ReconstructInto(&into, z, qp)
			if into != wantX || nonZero != (*z != Block{}) {
				t.Fatalf("qp %d block %d: ReconstructInto %v (non-zero %v), reference %v", qp, bi, into, nonZero, wantX)
			}
			for _, intra := range []bool{false, true} {
				if got, want := Quantize(z, qp, intra), refQuantize(z, qp, intra); got != want {
					t.Fatalf("qp %d block %d intra %v: Quantize %v, reference %v", qp, bi, intra, got, want)
				}
			}
		}
	}
}

// BenchmarkReconstruct measures the decoder's per-block kernel on the mix a
// decoded macroblock presents: mostly all-zero blocks plus a few coded ones.
func BenchmarkReconstruct(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(8))
	var blocks [16]Block
	for i := 0; i < len(blocks); i += 4 {
		x := randResidual(rng, 60)
		blocks[i] = QuantizeOnly(&x, 26, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range blocks {
			reconstructSink = Reconstruct(&blocks[j], 26)
		}
	}
}

// reconstructSink keeps the benchmarked calls from being optimized away.
var reconstructSink Block
