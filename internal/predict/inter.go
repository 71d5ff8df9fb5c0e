package predict

import "videoapp/internal/frame"

// MV is a motion vector in full luma pixels.
type MV struct{ X, Y int16 }

// Add returns the component-wise sum of two vectors.
func (m MV) Add(o MV) MV { return MV{m.X + o.X, m.Y + o.Y} }

// Sub returns the component-wise difference of two vectors.
func (m MV) Sub(o MV) MV { return MV{m.X - o.X, m.Y - o.Y} }

// MaxMV bounds motion vector components; decoded vectors outside this range
// (possible only in corrupt streams) are clamped.
const MaxMV = 64

// ClampMV saturates both components to the legal range.
func ClampMV(m MV) MV {
	c := func(v int16) int16 {
		if v < -MaxMV {
			return -MaxMV
		}
		if v > MaxMV {
			return MaxMV
		}
		return v
	}
	return MV{c(m.X), c(m.Y)}
}

// MedianMV computes the H.264 motion vector prediction: the component-wise
// median of the neighbors A (left), B (above), C (above-right), substituting
// zero vectors for unavailable neighbors when any neighbor exists.
func MedianMV(a, b, c MV, availA, availB, availC bool) MV {
	if !availA && !availB && !availC {
		return MV{}
	}
	// H.264 falls back to the single available neighbor when only A exists;
	// we generalize: unavailable neighbors contribute zero vectors.
	if availA && !availB && !availC {
		return a
	}
	var ax, bx, cx, ay, by, cy int16
	if availA {
		ax, ay = a.X, a.Y
	}
	if availB {
		bx, by = b.X, b.Y
	}
	if availC {
		cx, cy = c.X, c.Y
	}
	return MV{median3(ax, bx, cx), median3(ay, by, cy)}
}

func median3(a, b, c int16) int16 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// PartitionShape describes how a 16×16 macroblock is split for motion
// compensation. Shapes follow the H.264 partition tree; Part8x8Mixed allows
// each 8×8 quadrant its own sub-split.
type PartitionShape int

// Macroblock partition shapes.
const (
	Part16x16 PartitionShape = iota
	Part16x8
	Part8x16
	Part8x8
	Part8x4
	Part4x8
	Part4x4
	numPartShapes
)

// NumPartShapes is the number of partition shapes (for decoded-value checks).
const NumPartShapes = int(numPartShapes)

// Rect is a sub-rectangle of a macroblock, in luma pixels relative to the
// macroblock origin.
type Rect struct{ X, Y, W, H int }

// PartitionRects returns the compensation units of a shape. All shapes tile
// the full 16×16 block. The returned slice is shared by every caller and
// built once; callers must not modify it.
func PartitionRects(s PartitionShape) []Rect {
	if s < 0 || s >= numPartShapes {
		s = Part16x16
	}
	return partitionRects[s]
}

var partitionRects = func() (out [numPartShapes][]Rect) {
	grid := func(w, h int) []Rect {
		rects := make([]Rect, 0, 256/(w*h))
		for y := 0; y < 16; y += h {
			for x := 0; x < 16; x += w {
				rects = append(rects, Rect{x, y, w, h})
			}
		}
		return rects
	}
	out[Part16x16] = grid(16, 16)
	out[Part16x8] = grid(16, 8)
	out[Part8x16] = grid(8, 16)
	out[Part8x8] = grid(8, 8)
	out[Part8x4] = grid(8, 4)
	out[Part4x8] = grid(4, 8)
	out[Part4x4] = grid(4, 4)
	return out
}()

// SAD computes the sum of absolute differences between the cur rectangle at
// (cx, cy) and the ref rectangle displaced by mv, with edge clamping.
func SAD(cur, ref *frame.Frame, cx, cy, w, h int, mv MV) int {
	return SADLimit(cur, ref, cx, cy, w, h, mv, maxSADLimit)
}

// MotionSearch finds the best integer-pel motion vector for the rectangle at
// (cx, cy) of size w×h, searching a diamond pattern seeded at the predicted
// vector pred within ±searchRange. The cost includes a small rate penalty on
// the vector difference so that near-prediction vectors win ties, as in a
// rate-distortion-aware encoder.
func MotionSearch(cur, ref *frame.Frame, cx, cy, w, h int, pred MV, searchRange int) (MV, int) {
	// cost evaluates a candidate with early termination against limit: once
	// the rate penalty alone, or the partial SAD plus the penalty, reaches
	// limit the candidate cannot beat the running minimum, and any returned
	// value >= limit is rejected by the strict comparisons below exactly as
	// the exact cost would be. Accepted candidates always carry exact costs.
	cost := func(mv MV, limit int) int {
		d := mv.Sub(pred)
		rate := 2 * (int(abs16(d.X)) + int(abs16(d.Y)))
		if rate >= limit {
			return limit
		}
		return SADLimit(cur, ref, cx, cy, w, h, mv, limit-rate) + rate
	}
	best := ClampMV(pred)
	bestCost := cost(best, maxSADLimit)
	if zc := cost(MV{}, bestCost); zc < bestCost {
		best, bestCost = MV{}, zc
	}
	// Coarse-to-fine square-pattern refinement until no improvement at each
	// step size. Eight directions per step avoid the axis-only traps of a
	// pure diamond on diagonal motion.
	for _, step := range []int16{8, 4, 2, 1} {
		improved := true
		for improved {
			improved = false
			for _, d := range [8]MV{
				{step, 0}, {-step, 0}, {0, step}, {0, -step},
				{step, step}, {step, -step}, {-step, step}, {-step, -step},
			} {
				cand := ClampMV(best.Add(d))
				if cand == best {
					continue
				}
				if abs16(cand.X-pred.X) > int16(searchRange) || abs16(cand.Y-pred.Y) > int16(searchRange) {
					continue
				}
				if c := cost(cand, bestCost); c < bestCost {
					best, bestCost = cand, c
					improved = true
				}
			}
		}
	}
	return best, bestCost
}

func abs16(v int16) int16 {
	if v < 0 {
		return -v
	}
	return v
}

// Compensate writes the motion-compensated luma prediction for the rectangle
// at absolute position (cx, cy) of size w×h into dst (row-major w×h),
// reading ref displaced by mv with edge clamping. A displaced rectangle
// that lies inside ref is copied row by row; clamping is the identity there.
func Compensate(dst []uint8, ref *frame.Frame, cx, cy, w, h int, mv MV) {
	rx, ry := cx+int(mv.X), cy+int(mv.Y)
	if rx >= 0 && ry >= 0 && rx+w <= ref.W && ry+h <= ref.H {
		for y := 0; y < h; y++ {
			o := (ry+y)*ref.W + rx
			copy(dst[y*w:(y+1)*w], ref.Y[o:o+w])
		}
		return
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst[y*w+x] = ref.LumaAt(cx+x+int(mv.X), cy+y+int(mv.Y))
		}
	}
}

// CompensateBi writes the average of two motion-compensated predictions,
// used by bi-predicted B-frame partitions.
func CompensateBi(dst []uint8, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := int(ref0.LumaAt(cx+x+int(mv0.X), cy+y+int(mv0.Y)))
			b := int(ref1.LumaAt(cx+x+int(mv1.X), cy+y+int(mv1.Y)))
			dst[y*w+x] = uint8((a + b + 1) / 2)
		}
	}
}

// WeightedRef is one edge of the dependency graph in pixel units: the source
// macroblock and the number of its pixels referenced by the prediction.
type WeightedRef struct {
	MB     frame.MB
	Pixels int
}

// Footprint computes which macroblocks of a w×h reference frame a
// compensation of the rectangle at (cx, cy) displaced by mv actually reads,
// and how many pixels land in each, accounting for edge clamping. The pixel
// counts sum to the rectangle area.
func Footprint(refW, refH, cx, cy, rw, rh int, mv MV) []WeightedRef {
	// Clamped coordinates form contiguous runs of MB columns and rows, so
	// the histograms are small dense slices, emitted in raster order to
	// keep dependency records deterministic.
	colPix := pixelsPerMB(cx+int(mv.X), rw, refW)
	rowPix := pixelsPerMB(cy+int(mv.Y), rh, refH)
	out := make([]WeightedRef, 0, len(colPix)*len(rowPix))
	for _, r := range rowPix {
		for _, c := range colPix {
			out = append(out, WeightedRef{MB: frame.MB{X: c.mb, Y: r.mb}, Pixels: c.n * r.n})
		}
	}
	return out
}

type mbCount struct{ mb, n int }

// pixelsPerMB histograms the clamped coordinates start..start+len-1 by
// macroblock index along one axis, in ascending order.
func pixelsPerMB(start, length, limit int) []mbCount {
	var out []mbCount
	for i := 0; i < length; i++ {
		mb := clampInt(start+i, limit) / frame.MBSize
		if n := len(out); n > 0 && out[n-1].mb == mb {
			out[n-1].n++
		} else {
			out = append(out, mbCount{mb: mb, n: 1})
		}
	}
	return out
}

func clampInt(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}
