package codec

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/predict"
	"videoapp/internal/transform"
)

// clampedChromaPredict is the per-sample edge-clamped chroma loop, the
// reference for chromaInterPredict's in-frame row-copy path.
func clampedChromaPredict(dstCb, dstCr []uint8, ref *frame.Frame, mbx, mby int, rects []predict.Rect, mvs []predict.MV, mvDiv int) {
	cx0, cy0 := mbx*8, mby*8
	for i, r := range rects {
		mv := mvs[i]
		for y := r.Y / 2; y < (r.Y+r.H)/2; y++ {
			for x := r.X / 2; x < (r.X+r.W)/2; x++ {
				cb, cr := ref.ChromaAt(cx0+x+int(mv.X)/mvDiv, cy0+y+int(mv.Y)/mvDiv)
				dstCb[y*8+x] = cb
				dstCr[y*8+x] = cr
			}
		}
	}
}

func randFrame(rng *rand.Rand, w, h int) *frame.Frame {
	f := frame.MustNew(w, h)
	rng.Read(f.Y)
	rng.Read(f.Cb)
	rng.Read(f.Cr)
	return f
}

// TestChromaInterPredictMatchesClampedLoop covers both vector scales (2 for
// full-pel, 4 for half-pel), every macroblock of a small frame so partitions
// touch all four edges, and every vector in ±MaxMV — negative odd vectors
// included, whose division truncates toward zero.
func TestChromaInterPredictMatchesClampedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randFrame(rng, 48, 32)
	shapes := []predict.PartitionShape{predict.Part16x16, predict.Part8x4, predict.Part4x4}
	var gotCb, gotCr, wantCb, wantCr [64]uint8
	var mvs [16]predict.MV
	for _, mvDiv := range []int{2, 4} {
		for _, shape := range shapes {
			rects := predict.PartitionRects(shape)
			for mby := 0; mby < ref.MBRows(); mby++ {
				for mbx := 0; mbx < ref.MBCols(); mbx++ {
					for v := -predict.MaxMV; v <= predict.MaxMV; v++ {
						for i := range rects {
							// Per-partition vectors differ so each rect takes its own path.
							mvs[i] = predict.MV{X: int16(v), Y: int16(-v + i%3 - 1)}
						}
						chromaInterPredict(gotCb[:], gotCr[:], ref, mbx, mby, rects, mvs[:], mvDiv)
						clampedChromaPredict(wantCb[:], wantCr[:], ref, mbx, mby, rects, mvs[:], mvDiv)
						if gotCb != wantCb || gotCr != wantCr {
							t.Fatalf("mvDiv %d shape %d MB (%d,%d) v %d: fast path differs from clamped loop", mvDiv, shape, mbx, mby, v)
						}
					}
				}
			}
		}
	}
}

// referenceReconstructMB is the per-pixel 4×4 loop reconstructMB replaced:
// Inverse(Dequantize) per block, then clamp(pred + residual) per sample.
func referenceReconstructMB(rec *frame.Frame, mbx, mby int, predY, predCb, predCr []uint8, levels *[16]transform.Block, chroma *[8]transform.Block, qp int) {
	px, py := mbx*frame.MBSize, mby*frame.MBSize
	for b := 0; b < 16; b++ {
		w := transform.Dequantize(&levels[b], qp)
		res := transform.Inverse(&w)
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				ox, oy := b%4*4+x, b/4*4+y
				rec.SetLuma(px+ox, py+oy, frame.ClampU8(int(predY[oy*16+ox])+int(res[y*4+x])))
			}
		}
	}
	cw := rec.W / 2
	for plane, dst := range [][]uint8{rec.Cb, rec.Cr} {
		prd := [][]uint8{predCb, predCr}[plane]
		for b := 0; b < 4; b++ {
			w := transform.Dequantize(&chroma[plane*4+b], qp)
			res := transform.Inverse(&w)
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					ox, oy := b%2*4+x, b/2*4+y
					dst[(mby*8+oy)*cw+mbx*8+ox] = frame.ClampU8(int(prd[oy*8+ox]) + int(res[y*4+x]))
				}
			}
		}
	}
}

// TestReconstructMBMatchesReference checks the shared row-wise reconstruct
// against the per-pixel reference on random, sparse, zero and saturated
// levels, at every QP, for every macroblock of a small frame.
func TestReconstructMBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := randFrame(rng, 48, 32)
	for qp := 0; qp <= transform.MaxQP; qp++ {
		for trial := 0; trial < 4; trial++ {
			var predY [256]uint8
			var predCb, predCr [64]uint8
			rng.Read(predY[:])
			rng.Read(predCb[:])
			rng.Read(predCr[:])
			var levels [16]transform.Block
			var chroma [8]transform.Block
			fill := func(blk *transform.Block) {
				switch rng.Intn(4) {
				case 0: // zero block: the skipped path
				case 1:
					blk[rng.Intn(16)] = rng.Int31n(2*maxLevel+1) - maxLevel
				case 2:
					for i := range blk {
						blk[i] = rng.Int31n(41) - 20
					}
				default:
					for i := range blk {
						blk[i] = maxLevel
						if rng.Intn(2) == 0 {
							blk[i] = -maxLevel
						}
					}
				}
			}
			for i := range levels {
				fill(&levels[i])
			}
			for i := range chroma {
				fill(&chroma[i])
			}
			for mby := 0; mby < base.MBRows(); mby++ {
				for mbx := 0; mbx < base.MBCols(); mbx++ {
					got, want := base.Clone(), base.Clone()
					reconstructMB(got, mbx, mby, predY[:], predCb[:], predCr[:], &levels, &chroma, qp)
					referenceReconstructMB(want, mbx, mby, predY[:], predCb[:], predCr[:], &levels, &chroma, qp)
					if !bytes.Equal(got.Y, want.Y) || !bytes.Equal(got.Cb, want.Cb) || !bytes.Equal(got.Cr, want.Cr) {
						t.Fatalf("qp %d trial %d MB (%d,%d): reconstructMB differs from reference", qp, trial, mbx, mby)
					}
				}
			}
		}
	}
}

// decodeQCIFAllocs pins the allocations of decoding the BenchmarkDecodeQCIF
// clip: per-frame planes and state only, nothing per macroblock. Pooled
// frames left by earlier encodes can only lower the count.
const decodeQCIFAllocs = 108

func TestDecodeQCIFAllocs(t *testing.T) {
	v, err := Encode(testSeq(t, "crew_like", 176, 144, 10), testParams())
	if err != nil {
		t.Fatal(err)
	}
	// A collection mid-measurement empties the frame pools, and the next
	// Get re-allocates per-P pool state; with GC off the count is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(5, func() {
		if _, err := Decode(v); err != nil {
			t.Fatal(err)
		}
	})
	if got > decodeQCIFAllocs {
		t.Fatalf("decode: %.0f allocs/op, pinned at %d", got, decodeQCIFAllocs)
	}
}
