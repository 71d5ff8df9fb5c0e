package codec

import (
	"fmt"

	"videoapp/internal/bitio"
	"videoapp/internal/entropy"
	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/predict"
	"videoapp/internal/transform"
)

// DecodeOptions tunes error handling during decoding.
type DecodeOptions struct {
	// ConcealOnDesync switches the handling of entropy-stream desync from
	// "keep interpreting garbage" (the conservative behaviour the paper
	// measures) to macroblock concealment: once the reader reports desync,
	// the rest of the slice is filled by copying co-located content from
	// the forward reference (or mid-gray for I frames), as production
	// decoders such as ffmpeg do.
	ConcealOnDesync bool
	// Observer, when non-nil, receives decode instrumentation: the
	// per-slice entropy resync counter (obs.CtrResync) fires once for
	// every slice whose symbol reader ends desynced. DecodeContext fills
	// it from the context when unset; the serial Decode paths leave it
	// nil, which disables publication entirely.
	Observer obs.Observer
}

// Decode reconstructs the display-order sequence from the coded video.
//
// The decoder is error-resilient: arbitrarily corrupted payloads produce
// damaged pictures, never a panic or an abort. Every value read from the
// entropy stream is range-checked and clamped; when the stream desyncs the
// decoder keeps interpreting garbage within the frame (the paper's Figure
// 2(c) behaviour) and resynchronizes at the next frame boundary, because
// each frame's payload is independently delimited by its precisely-stored
// header and the entropy context is reset per frame.
func Decode(v *Video) (*frame.Sequence, error) {
	return DecodeWithOptions(v, DecodeOptions{})
}

// DecodeWithOptions is Decode with explicit error-handling options.
func DecodeWithOptions(v *Video, opts DecodeOptions) (*frame.Sequence, error) {
	rec, err := decodeRecsOpts(v, opts)
	if err != nil {
		return nil, err
	}
	return RecsToDisplay(v, rec)
}

// DecodeRecs decodes the video and returns the reconstructed frames in coded
// order — the form experiments need to re-decode single frames cheaply.
func DecodeRecs(v *Video) ([]*frame.Frame, error) {
	return decodeRecsOpts(v, DecodeOptions{})
}

func decodeRecsOpts(v *Video, opts DecodeOptions) ([]*frame.Frame, error) {
	if v.W%frame.MBSize != 0 || v.H%frame.MBSize != 0 || v.W <= 0 || v.H <= 0 {
		return nil, errFrameGeometry(v.W, v.H)
	}
	rec := make([]*frame.Frame, len(v.Frames))
	for i := range v.Frames {
		rec[i] = decodeSingleOpts(v, i, rec, opts)
	}
	return rec, nil
}

// DecodeSingle decodes only coded frame idx against the given coded-order
// reference reconstructions (entries beyond idx are not read). Callers can
// substitute clean references to isolate one frame's coding errors from
// compensation errors, as the Figure 3 experiment requires.
func DecodeSingle(v *Video, idx int, recs []*frame.Frame) *frame.Frame {
	return decodeSingleOpts(v, idx, recs, DecodeOptions{})
}

func decodeSingleOpts(v *Video, idx int, recs []*frame.Frame, opts DecodeOptions) *frame.Frame {
	fd := &frameDecoder{video: v, ef: v.Frames[idx], recRefs: recs, rec: frame.MustNewPooled(v.W, v.H), opts: opts}
	fd.run()
	return fd.rec
}

// RecsToDisplay reorders coded-order reconstructions into a display-order
// sequence.
func RecsToDisplay(v *Video, rec []*frame.Frame) (*frame.Sequence, error) {
	display := make([]*frame.Frame, len(v.Frames))
	for i, ef := range v.Frames {
		if ef.DisplayIdx < 0 || ef.DisplayIdx >= len(v.Frames) {
			return nil, fmt.Errorf("codec: display index %d out of range", ef.DisplayIdx)
		}
		display[ef.DisplayIdx] = rec[i]
	}
	seq := &frame.Sequence{Name: "decoded", FPS: v.FPS}
	for _, f := range display {
		if f == nil {
			f = frame.MustNew(v.W, v.H)
		}
		seq.Frames = append(seq.Frames, f)
	}
	return seq, nil
}

type frameDecoder struct {
	video   *Video
	ef      *EncodedFrame
	recRefs []*frame.Frame
	rec     *frame.Frame

	sr       entropy.SymbolReader
	qps      []int
	mvRep    []predict.MV
	mvAvail  []bool
	sliceTop int
	opts     DecodeOptions

	// Recording mode (Reanalyze): rebuild per-MB records while decoding.
	record  bool
	recs    []MBRecord
	curRec  *MBRecord
	bitBase int64
}

// mvDiv is the divisor converting motion vector units to chroma pixels.
func (fd *frameDecoder) mvDiv() int {
	if fd.video.Params.HalfPel {
		return 4
	}
	return 2
}

func (fd *frameDecoder) compensate(buf []uint8, ref *frame.Frame, cx, cy, w, h int, mv predict.MV) {
	if fd.video.Params.HalfPel {
		predict.CompensateHP(buf, ref, cx, cy, w, h, mv)
	} else {
		predict.Compensate(buf, ref, cx, cy, w, h, mv)
	}
}

func (fd *frameDecoder) compensateBi(buf []uint8, ref0, ref1 *frame.Frame, cx, cy, w, h int, mv0, mv1 predict.MV) {
	if fd.video.Params.HalfPel {
		predict.CompensateBiHP(buf, ref0, ref1, cx, cy, w, h, mv0, mv1)
	} else {
		predict.CompensateBi(buf, ref0, ref1, cx, cy, w, h, mv0, mv1)
	}
}

func (fd *frameDecoder) refFrame(codedIdx int) *frame.Frame {
	if !validFrameRef(codedIdx, len(fd.recRefs)) || fd.recRefs[codedIdx] == nil {
		return nil
	}
	return fd.recRefs[codedIdx]
}

func (fd *frameDecoder) run() {
	mbCols, mbRows := fd.rec.MBCols(), fd.rec.MBRows()
	defer func() {
		if fd.video.Params.Deblock {
			deblockFrame(fd.rec, fd.qps, mbCols)
		}
	}()
	fd.qps = make([]int, mbCols*mbRows)
	fd.mvRep = make([]predict.MV, mbCols*mbRows)
	fd.mvAvail = make([]bool, mbCols*mbRows)
	starts := fd.ef.SliceMBStart
	byteStarts := fd.ef.SliceByteStart
	if len(starts) == 0 {
		starts, byteStarts = []int{0}, []int{0}
	}
	for s := range starts {
		topMB := clampRange(starts[s], 0, mbCols*mbRows)
		endMB := mbCols * mbRows
		if s+1 < len(starts) {
			endMB = clampRange(starts[s+1], topMB, mbCols*mbRows)
		}
		byteStart := clampRange(byteStarts[s], 0, len(fd.ef.Payload))
		byteEnd := len(fd.ef.Payload)
		if s+1 < len(byteStarts) {
			byteEnd = clampRange(byteStarts[s+1], byteStart, len(fd.ef.Payload))
		}
		// Fresh entropy context per slice over its own payload span.
		fd.sr = newSymbolReader(fd.video.Params.Entropy, bitio.NewReader(fd.ef.Payload[byteStart:byteEnd]))
		fd.sliceTop = topMB / mbCols
		fd.bitBase = int64(byteStart) * 8
		sliceRecStart := len(fd.recs)
		concealed := false
		for m := topMB; m < endMB; m++ {
			if fd.opts.ConcealOnDesync && (concealed || fd.sr.Desynced()) {
				concealed = true
				fd.concealMB(m%mbCols, m/mbCols)
				if fd.record {
					fd.recs = append(fd.recs, MBRecord{MB: frame.MB{X: m % mbCols, Y: m / mbCols}, BitStart: fd.bitBase + fd.sr.BitPos()})
					fd.curRec = &fd.recs[len(fd.recs)-1]
				}
				continue
			}
			if fd.record {
				fd.recs = append(fd.recs, MBRecord{MB: frame.MB{X: m % mbCols, Y: m / mbCols}})
				fd.curRec = &fd.recs[len(fd.recs)-1]
				fd.curRec.BitStart = fd.bitBase + fd.sr.BitPos()
				if m == topMB {
					// The arithmetic decoder's prefetch belongs to the
					// slice's first macroblock.
					fd.curRec.BitStart = fd.bitBase
				}
			}
			fd.decodeMB(m%mbCols, m/mbCols)
		}
		if fd.record {
			// Bit lengths from consecutive starts; the slice's last MB
			// absorbs the termination bits, mirroring the encoder.
			sliceEndBit := int64(byteEnd) * 8
			for i := sliceRecStart; i < len(fd.recs); i++ {
				end := sliceEndBit
				if i+1 < len(fd.recs) {
					end = fd.recs[i+1].BitStart
				}
				if end < fd.recs[i].BitStart {
					end = fd.recs[i].BitStart
				}
				fd.recs[i].BitLen = end - fd.recs[i].BitStart
			}
		}
		if fd.opts.Observer != nil && fd.sr.Desynced() {
			fd.opts.Observer.Counter(obs.CtrResync, fd.video.Params.Entropy.String(), 1)
		}
	}
}

// Reanalyze rebuilds the per-macroblock analysis records (bit ranges and
// dependency footprints) of every frame by decoding the video, replacing
// v.Frames[i].MBs in place. This is how VideoApp operates on videos it did
// not encode itself — e.g. ones loaded with Unmarshal. Dependencies are
// exact for clean streams; CABAC bit ranges are attribution estimates
// accurate to the arithmetic decoder's few-bit lookahead.
func Reanalyze(v *Video) error {
	if v.W%frame.MBSize != 0 || v.H%frame.MBSize != 0 || v.W <= 0 || v.H <= 0 {
		return errFrameGeometry(v.W, v.H)
	}
	rec := make([]*frame.Frame, len(v.Frames))
	for i, ef := range v.Frames {
		fd := &frameDecoder{video: v, ef: ef, recRefs: rec, rec: frame.MustNew(v.W, v.H), record: true}
		fd.run()
		rec[i] = fd.rec
		ef.MBs = fd.recs
	}
	return nil
}

// addDep records one dependency while in recording mode.
func (fd *frameDecoder) addDep(refCoded, cx, cy, w, h int, mv predict.MV, share int) {
	if !fd.record || fd.curRec == nil || refCoded < 0 {
		return
	}
	fp := predict.Footprint(fd.rec.W, fd.rec.H, cx, cy, w, h, mv)
	if fd.video.Params.HalfPel {
		fp = predict.FootprintHP(fd.rec.W, fd.rec.H, cx, cy, w, h, mv)
	}
	for _, wr := range fp {
		fd.curRec.Deps = append(fd.curRec.Deps, CompDep{SrcFrame: refCoded, SrcMB: wr.MB, Pixels: wr.Pixels / share})
	}
}

func clampRange(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (fd *frameDecoder) decodeMB(mx, my int) {
	mbCols := fd.rec.MBCols()
	mbIdx := my*mbCols + mx
	refF := fd.refFrame(fd.ef.RefFwd)
	refB := fd.refFrame(fd.ef.RefBwd)
	predMV := mvPrediction(fd.mvRep, fd.mvAvail, mx, my, mbCols, fd.sliceTop)

	mbType := mbIntra
	if fd.ef.Type != FrameI {
		mbType = int(fd.sr.GetUVal(entropy.ClassMBType)) % numMBTypes
	}
	// A frame without a forward reference cannot code inter MBs; corrupt
	// types collapse to intra, keeping decode well-defined.
	if mbType != mbIntra && refF == nil {
		mbType = mbIntra
	}

	switch mbType {
	case mbSkip:
		skipQP := qpPrediction(fd.qps, mx, my, mbCols, fd.ef.BaseQP, fd.sliceTop)
		fd.qps[mbIdx] = skipQP
		fd.reconstructSkip(mx, my, refF, predMV)
		fd.addDep(fd.ef.RefFwd, mx*frame.MBSize, my*frame.MBSize, 16, 16, predMV, 1)
		if fd.record && fd.curRec != nil {
			fd.curRec.QP = skipQP
		}
		fd.mvRep[mbIdx] = predMV
		fd.mvAvail[mbIdx] = true
	case mbIntra:
		mode := predict.IntraMode(int(fd.sr.GetUVal(entropy.ClassIntraMode)) % predict.NumIntraModes)
		qp := fd.decodeQP(mx, my, mbIdx)
		pred := predict.IntraPredict16Avail(fd.rec, mx, my, mode, my > fd.sliceTop, mx > 0)
		var predCb, predCr [64]uint8
		chromaIntraPredict(predCb[:], predCr[:], fd.rec, mx, my, my > fd.sliceTop, mx > 0)
		fd.decodeResidualAndReconstruct(mx, my, pred[:], predCb[:], predCr[:], qp)
		if fd.record && fd.curRec != nil {
			fd.curRec.Intra = true
			fd.curRec.QP = qp
			for _, wr := range predict.IntraFootprintAvail(mx, my, mbCols, mode, my > fd.sliceTop, mx > 0) {
				fd.curRec.Deps = append(fd.curRec.Deps, CompDep{SrcFrame: fd.ef.CodedIdx, SrcMB: wr.MB, Pixels: wr.Pixels})
			}
		}
		fd.mvAvail[mbIdx] = false
	default:
		shape := mbTypeToShape(mbType)
		rects := predict.PartitionRects(shape)
		// At most 16 partitions (4×4); fixed arrays keep decode allocation-free.
		var dirs [16]int
		var mvF, mvB [16]predict.MV
		prevMV := predMV
		for i := range rects {
			dir := dirFwd
			if fd.ef.Type == FrameB {
				dir = int(fd.sr.GetUVal(entropy.ClassRefIdx)) % 3
				if refB == nil && dir != dirFwd {
					dir = dirFwd
				}
			}
			dirs[i] = dir
			switch dir {
			case dirBwd:
				d := fd.readMVD()
				mvB[i] = predict.ClampMV(prevMV.Add(d))
				prevMV = mvB[i]
			case dirBi:
				dF := fd.readMVD()
				mvF[i] = predict.ClampMV(prevMV.Add(dF))
				dB := fd.readMVD()
				mvB[i] = predict.ClampMV(mvF[i].Add(dB))
				prevMV = mvF[i]
			default:
				d := fd.readMVD()
				mvF[i] = predict.ClampMV(prevMV.Add(d))
				prevMV = mvF[i]
			}
		}
		qp := fd.decodeQP(mx, my, mbIdx)

		px, py := mx*frame.MBSize, my*frame.MBSize
		var predY, part [256]uint8
		for i, r := range rects {
			buf := part[:r.W*r.H]
			switch dirs[i] {
			case dirBwd:
				fd.compensate(buf, refB, px+r.X, py+r.Y, r.W, r.H, mvB[i])
				fd.addDep(fd.ef.RefBwd, px+r.X, py+r.Y, r.W, r.H, mvB[i], 1)
			case dirBi:
				fd.compensateBi(buf, refF, refB, px+r.X, py+r.Y, r.W, r.H, mvF[i], mvB[i])
				fd.addDep(fd.ef.RefFwd, px+r.X, py+r.Y, r.W, r.H, mvF[i], 2)
				fd.addDep(fd.ef.RefBwd, px+r.X, py+r.Y, r.W, r.H, mvB[i], 2)
			default:
				fd.compensate(buf, refF, px+r.X, py+r.Y, r.W, r.H, mvF[i])
				fd.addDep(fd.ef.RefFwd, px+r.X, py+r.Y, r.W, r.H, mvF[i], 1)
			}
			for y := 0; y < r.H; y++ {
				copy(predY[(r.Y+y)*16+r.X:(r.Y+y)*16+r.X+r.W], buf[y*r.W:(y+1)*r.W])
			}
		}
		var predCb, predCr [64]uint8
		if dirs[0] == dirBwd {
			chromaInterPredict(predCb[:], predCr[:], refB, mx, my, rects, mvB[:], fd.mvDiv())
		} else {
			chromaInterPredict(predCb[:], predCr[:], refF, mx, my, rects, mvF[:], fd.mvDiv())
		}
		fd.decodeResidualAndReconstruct(mx, my, predY[:], predCb[:], predCr[:], qp)
		if fd.record && fd.curRec != nil {
			fd.curRec.QP = qp
		}
		if dirs[0] == dirBwd {
			fd.mvRep[mbIdx] = mvB[0]
		} else {
			fd.mvRep[mbIdx] = mvF[0]
		}
		fd.mvAvail[mbIdx] = true
	}
}

func (fd *frameDecoder) readMVD() predict.MV {
	x := fd.sr.GetSVal(entropy.ClassMVX)
	y := fd.sr.GetSVal(entropy.ClassMVY)
	return predict.ClampMV(predict.MV{X: clamp16(x), Y: clamp16(y)})
}

func clamp16(v int32) int16 {
	if v > 1<<14 {
		return 1 << 14
	}
	if v < -(1 << 14) {
		return -(1 << 14)
	}
	return int16(v)
}

func (fd *frameDecoder) decodeQP(mx, my, mbIdx int) int {
	dqp := int(fd.sr.GetSVal(entropy.ClassDQP))
	if dqp > transform.MaxQP {
		dqp = transform.MaxQP
	}
	if dqp < -transform.MaxQP {
		dqp = -transform.MaxQP
	}
	pred := qpPrediction(fd.qps, mx, my, fd.rec.MBCols(), fd.ef.BaseQP, fd.sliceTop)
	qp := transform.ClampQP(pred + dqp)
	fd.qps[mbIdx] = qp
	return qp
}

func (fd *frameDecoder) reconstructSkip(mx, my int, refF *frame.Frame, mv predict.MV) {
	var predY [256]uint8
	fd.compensate(predY[:], refF, mx*frame.MBSize, my*frame.MBSize, 16, 16, mv)
	putBlock(fd.rec.Y, fd.rec.W, mx*frame.MBSize, my*frame.MBSize, 16, 16, predY[:])
	var predCb, predCr [64]uint8
	mvs := [1]predict.MV{mv}
	chromaInterPredict(predCb[:], predCr[:], refF, mx, my, predict.PartitionRects(predict.Part16x16), mvs[:], fd.mvDiv())
	putBlock(fd.rec.Cb, fd.rec.W/2, mx*8, my*8, 8, 8, predCb[:])
	putBlock(fd.rec.Cr, fd.rec.W/2, mx*8, my*8, 8, 8, predCr[:])
}

func (fd *frameDecoder) decodeResidualAndReconstruct(mx, my int, predY, predCb, predCr []uint8, qp int) {
	hasResidual := fd.sr.GetFlag(entropy.ClassCBP)
	var levels [16]transform.Block
	var chromaLevels [8]transform.Block
	if hasResidual {
		for b := 0; b < 16; b++ {
			levels[b] = readResidualBlock(fd.sr)
		}
		for b := 0; b < 8; b++ {
			chromaLevels[b] = readResidualBlock(fd.sr)
		}
	}
	reconstructMB(fd.rec, mx, my, predY, predCb, predCr, &levels, &chromaLevels, qp)
}

// concealMB fills a macroblock by copying the co-located content from the
// forward reference frame, or mid-gray when none exists — standard temporal
// error concealment. The co-located copy is a zero-vector skip.
func (fd *frameDecoder) concealMB(mx, my int) {
	if refF := fd.refFrame(fd.ef.RefFwd); refF != nil {
		fd.reconstructSkip(mx, my, refF, predict.MV{})
		return
	}
	var gray [256]uint8
	for i := range gray {
		gray[i] = 128
	}
	putBlock(fd.rec.Y, fd.rec.W, mx*frame.MBSize, my*frame.MBSize, 16, 16, gray[:])
	putBlock(fd.rec.Cb, fd.rec.W/2, mx*8, my*8, 8, 8, gray[:64])
	putBlock(fd.rec.Cr, fd.rec.W/2, mx*8, my*8, 8, 8, gray[:64])
}
