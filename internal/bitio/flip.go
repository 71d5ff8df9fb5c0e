package bitio

// FlipBit inverts the bit at absolute bit offset pos (MSB-first) in buf.
// Offsets outside the buffer are ignored.
func FlipBit(buf []byte, pos int64) {
	if pos < 0 || pos >= int64(len(buf))*8 {
		return
	}
	buf[pos>>3] ^= 1 << (7 - uint(pos&7))
}

// GetBit returns the bit at absolute bit offset pos, or 0 outside the buffer.
func GetBit(buf []byte, pos int64) int {
	if pos < 0 || pos >= int64(len(buf))*8 {
		return 0
	}
	return int(buf[pos>>3] >> (7 - uint(pos&7)) & 1)
}

// CopyBits copies n bits starting at bit offset srcPos in src into dst
// starting at bit offset dstPos. Regions must already be allocated and must
// not overlap; bits outside either buffer are skipped.
//
// A copy that lies wholly inside both buffers moves whole bytes: bits are
// copied singly until dst reaches a byte boundary, then whole bytes go by
// copy when src is byte-aligned too and by a two-byte shift-merge when it
// is not, and the remaining tail bits go singly again.
func CopyBits(dst []byte, dstPos int64, src []byte, srcPos, n int64) {
	if n <= 0 || srcPos < 0 || dstPos < 0 || srcPos+n > int64(len(src))*8 || dstPos+n > int64(len(dst))*8 {
		copyBitsLoop(dst, dstPos, src, srcPos, n)
		return
	}
	if head := min(n, (8-dstPos&7)&7); head > 0 {
		copyBitsLoop(dst, dstPos, src, srcPos, head)
		dstPos, srcPos, n = dstPos+head, srcPos+head, n-head
	}
	nb := int(n >> 3)
	d, sb, shift := dst[dstPos>>3:][:nb], int(srcPos>>3), uint(srcPos&7)
	if shift == 0 {
		copy(d, src[sb:sb+nb])
	} else if nb > 0 {
		// Every output byte straddles two source bytes; the last one's
		// low bits are inside the copied range, so src[sb+nb] exists.
		s, rs := src[sb:sb+nb+1], (8-shift)&7
		for i := range d {
			d[i] = byte((uint16(s[i])<<8 | uint16(s[i+1])) >> rs)
		}
	}
	done := int64(nb) << 3
	copyBitsLoop(dst, dstPos+done, src, srcPos+done, n-done)
}

// copyBitsLoop is CopyBits one bit at a time, skipping bits outside either
// buffer. It handles the head and tail bits and any out-of-range call.
func copyBitsLoop(dst []byte, dstPos int64, src []byte, srcPos, n int64) {
	for i := int64(0); i < n; i++ {
		sp, dp := srcPos+i, dstPos+i
		if sp < 0 || sp >= int64(len(src))*8 || dp < 0 || dp >= int64(len(dst))*8 {
			continue
		}
		b := src[sp>>3] >> (7 - uint(sp&7)) & 1
		mask := byte(1) << (7 - uint(dp&7))
		if b == 1 {
			dst[dp>>3] |= mask
		} else {
			dst[dp>>3] &^= mask
		}
	}
}
