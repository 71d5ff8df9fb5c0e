// Package transform implements the H.264 4×4 integer approximation of the
// DCT and its quantization, using the standard multiplication-factor (MF)
// and rescale (V) tables. The transform is bit-exact integer arithmetic,
// so encoder and decoder reconstructions match exactly — a requirement for
// tracking bit-flip damage without drift from floating-point noise.
package transform

// Block is a 4×4 coefficient or residual block in row-major order.
type Block [16]int32

// Quantization tables from the H.264 standard, indexed by QP%6 and by
// coefficient position class: class 0 for (even row, even col), class 1 for
// (odd, odd), class 2 otherwise.
var (
	mfTable = [6][3]int32{
		{13107, 5243, 8066},
		{11916, 4660, 7490},
		{10082, 4194, 6554},
		{9362, 3647, 5825},
		{8192, 3355, 5243},
		{7282, 2893, 4559},
	}
	vTable = [6][3]int32{
		{10, 16, 13},
		{11, 18, 14},
		{13, 20, 16},
		{14, 23, 18},
		{16, 25, 20},
		{18, 29, 23},
	}
)

// Per-QP scale tables, built once at init: quantScale[qp][i] is the MF of
// coefficient i and dequantScale[qp][i] its rescale factor V<<(qp/6). The
// pre-shifted product is exact: z·(V<<s) equals (z·V)<<s in wrapping int32
// arithmetic, so corrupt levels overflow exactly as before.
var quantScale, dequantScale = buildScaleTables()

func buildScaleTables() (q, dq [MaxQP + 1][16]int32) {
	for qp := range q {
		for i := range q[qp] {
			c := posClass(i)
			q[qp][i] = mfTable[qp%6][c]
			dq[qp][i] = vTable[qp%6][c] << uint(qp/6)
		}
	}
	return q, dq
}

func posClass(i int) int {
	r, c := i/4, i%4
	switch {
	case r%2 == 0 && c%2 == 0:
		return 0
	case r%2 == 1 && c%2 == 1:
		return 1
	default:
		return 2
	}
}

// Forward applies the 4×4 forward core transform Y = Cf·X·Cfᵀ.
func Forward(x *Block) Block {
	var tmp, y Block
	// Rows: tmp = Cf · X (apply to each column of X... operate row-wise).
	for i := 0; i < 4; i++ {
		a, b, c, d := x[i*4], x[i*4+1], x[i*4+2], x[i*4+3]
		s0, s3 := a+d, a-d
		s1, s2 := b+c, b-c
		tmp[i*4] = s0 + s1
		tmp[i*4+1] = 2*s3 + s2
		tmp[i*4+2] = s0 - s1
		tmp[i*4+3] = s3 - 2*s2
	}
	// Columns.
	for j := 0; j < 4; j++ {
		a, b, c, d := tmp[j], tmp[4+j], tmp[8+j], tmp[12+j]
		s0, s3 := a+d, a-d
		s1, s2 := b+c, b-c
		y[j] = s0 + s1
		y[4+j] = 2*s3 + s2
		y[8+j] = s0 - s1
		y[12+j] = s3 - 2*s2
	}
	return y
}

// Quantize maps transform coefficients to quantized levels at the given QP
// (0..51). intra selects the larger dead-zone rounding offset.
func Quantize(y *Block, qp int, intra bool) Block {
	qp = clampQP(qp)
	mf := &quantScale[qp]
	qbits := uint(15 + qp/6)
	f := int64(1) << qbits / 6
	if intra {
		f = int64(1) << qbits / 3
	}
	var z Block
	for i := range y {
		m := int64(mf[i])
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

// Dequantize rescales quantized levels back to transform-domain values.
func Dequantize(z *Block, qp int) Block {
	s := &dequantScale[clampQP(qp)]
	var w Block
	for i := range z {
		w[i] = z[i] * s[i]
	}
	return w
}

// Inverse applies the 4×4 inverse core transform with the final >>6
// rounding, returning the reconstructed residual.
func Inverse(w *Block) Block {
	var tmp, x Block
	for i := 0; i < 4; i++ {
		a, b, c, d := w[i*4], w[i*4+1], w[i*4+2], w[i*4+3]
		e0 := a + c
		e1 := a - c
		e2 := b>>1 - d
		e3 := b + d>>1
		tmp[i*4] = e0 + e3
		tmp[i*4+1] = e1 + e2
		tmp[i*4+2] = e1 - e2
		tmp[i*4+3] = e0 - e3
	}
	for j := 0; j < 4; j++ {
		a, b, c, d := tmp[j], tmp[4+j], tmp[8+j], tmp[12+j]
		e0 := a + c
		e1 := a - c
		e2 := b>>1 - d
		e3 := b + d>>1
		x[j] = (e0 + e3 + 32) >> 6
		x[4+j] = (e1 + e2 + 32) >> 6
		x[8+j] = (e1 - e2 + 32) >> 6
		x[12+j] = (e0 - e3 + 32) >> 6
	}
	return x
}

// RoundTrip performs forward transform, quantization, dequantization and
// inverse transform — the complete lossy path a residual block undergoes.
func RoundTrip(x *Block, qp int, intra bool) Block {
	y := Forward(x)
	z := Quantize(&y, qp, intra)
	w := Dequantize(&z, qp)
	return Inverse(&w)
}

// QuantizeOnly runs forward transform and quantization, returning the levels
// the entropy coder will encode.
func QuantizeOnly(x *Block, qp int, intra bool) Block {
	y := Forward(x)
	return Quantize(&y, qp, intra)
}

// Reconstruct dequantizes levels and applies the inverse transform.
func Reconstruct(z *Block, qp int) Block {
	var x Block
	ReconstructInto(&x, z, qp)
	return x
}

// ReconstructInto writes Reconstruct(z, qp) into dst and reports whether any
// level was non-zero. An all-zero block skips dequantization and the inverse
// transform: every intermediate is zero and (0+32)>>6 == 0, so the result
// is the zero block exactly.
func ReconstructInto(dst, z *Block, qp int) bool {
	var nz int32
	for _, v := range z {
		nz |= v
	}
	if nz == 0 {
		*dst = Block{}
		return false
	}
	w := Dequantize(z, qp)
	*dst = Inverse(&w)
	return true
}

// MaxQP is the largest legal quantization parameter.
const MaxQP = 51

func clampQP(qp int) int {
	if qp < 0 {
		return 0
	}
	if qp > MaxQP {
		return MaxQP
	}
	return qp
}

// ClampQP exposes QP clamping to the encoder and decoder so that corrupt
// delta-QP values decode to a legal quantizer instead of panicking.
func ClampQP(qp int) int { return clampQP(qp) }
