package predict

import (
	"bytes"
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// clampedCompensate is the per-pixel edge-clamped loop, the reference the
// in-frame row-copy path of Compensate must reproduce.
func clampedCompensate(dst []uint8, ref *frame.Frame, cx, cy, w, h int, mv MV) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst[y*w+x] = ref.LumaAt(cx+x+int(mv.X), cy+y+int(mv.Y))
		}
	}
}

// TestCompensateMatchesClampedLoop drives every vector in ±MaxMV from
// rectangles touching all four edges of a small frame, so displacements
// land inside, across and wholly outside every border.
func TestCompensateMatchesClampedLoop(t *testing.T) {
	const w, h = 48, 32
	ref := frame.MustNew(w, h)
	rand.New(rand.NewSource(1)).Read(ref.Y)
	got, want := make([]uint8, 256), make([]uint8, 256)
	type rect struct{ x, y, w, h int }
	var rects []rect
	for _, size := range [][2]int{{16, 16}, {8, 4}, {4, 8}} {
		rw, rh := size[0], size[1]
		for _, pos := range [][2]int{{0, 0}, {w - rw, 0}, {0, h - rh}, {w - rw, h - rh}, {16, 8}} {
			rects = append(rects, rect{pos[0], pos[1], rw, rh})
		}
	}
	for _, r := range rects {
		for dy := -MaxMV; dy <= MaxMV; dy++ {
			for dx := -MaxMV; dx <= MaxMV; dx++ {
				mv := MV{X: int16(dx), Y: int16(dy)}
				n := r.w * r.h
				Compensate(got[:n], ref, r.x, r.y, r.w, r.h, mv)
				clampedCompensate(want[:n], ref, r.x, r.y, r.w, r.h, mv)
				if !bytes.Equal(got[:n], want[:n]) {
					t.Fatalf("rect %+v mv %v: fast path % x, clamped % x", r, mv, got[:n], want[:n])
				}
			}
		}
	}
}

// TestPartitionRectsShared pins that the shape tables are built once: every
// call returns the same backing array.
func TestPartitionRectsShared(t *testing.T) {
	for s := PartitionShape(0); s < numPartShapes; s++ {
		a, b := PartitionRects(s), PartitionRects(s)
		if &a[0] != &b[0] {
			t.Fatalf("shape %d: PartitionRects rebuilt its slice", s)
		}
	}
	if got := PartitionRects(PartitionShape(99)); len(got) != 1 || got[0] != (Rect{0, 0, 16, 16}) {
		t.Fatalf("unknown shape: got %v, want one 16x16 rect", got)
	}
}
