package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"time"

	"videoapp"
	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/quality"
)

// pipeEnv is the pipeline_roundtrip input: one high-motion source and the
// outcome its first round trip fixed as the reference.
type pipeEnv struct {
	cfg        config
	src        *frame.Sequence
	injectSeed int64
	ref        *iteration
}

// setupPipeline generates the source and runs one reference round trip.
func setupPipeline(ctx context.Context, cfg config, seed int64) (*pipeEnv, error) {
	src, err := source(cfg, pipelinePreset, cfg.PipelineChunks)
	if err != nil {
		return nil, err
	}
	e := &pipeEnv{cfg: cfg, src: src, injectSeed: subSeed(seed, "inject")}
	it := e.iterate(ctx, nil)
	if it.err != nil {
		return nil, it.err
	}
	for i, c := range it.chunks {
		if c.err != nil {
			return nil, fmt.Errorf("reference chunk %d: %w", i, c.err)
		}
	}
	e.ref = &it
	return e, nil
}

// chunkOutcome is one chunk's read → round trip → PSNR.
type chunkOutcome struct {
	measure time.Duration // PSNR time
	psnr    float64
	frames  int
	flips   int
	err     error
}

// iteration is one pass of the paper path over the whole source.
type iteration struct {
	err    error // the archive could not be written or reopened
	crc    uint32
	cpp    float64
	stream time.Duration // StreamToArchive wall time
	write  timedWriter
	chunks []chunkOutcome
}

// iterate writes the source with StreamToArchive into memory, reopens the
// archive, and round-trips every chunk with a fixed injection seed,
// comparing each against the source by PSNR. With a tracer the pipeline
// reports to it, the leaf reads are timed and every call is a span.
func (e *pipeEnv) iterate(ctx context.Context, log *spanLog) iteration {
	var o videoapp.Observer
	if log != nil {
		o = log.tr
	}
	pl := newPipeline(e.cfg, o)
	var it iteration
	var buf bytes.Buffer
	it.write.w = &buf
	root := log.start("pipeline.iteration", 0, 0)
	root.Req = root.ID
	ws := log.start("pipeline.stream_to_archive", root.ID, root.Req)
	t0 := time.Now()
	_, st, err := pl.StreamToArchive(ctx, videoapp.SequenceSource(e.src), &it.write)
	it.stream = time.Since(t0)
	log.end(ws)
	if err != nil {
		it.err = fmt.Errorf("stream to archive: %w", err)
		return it
	}
	it.crc = crc32.Checksum(buf.Bytes(), castagnoli)
	it.cpp = st.CellsPerPixel

	a, err := videoapp.OpenArchiveBackend(log.timed(videoapp.NewSnapshotBackend(buf.Bytes())))
	if err != nil {
		it.err = fmt.Errorf("reopen: %w", err)
		return it
	}
	defer a.Close()
	workers := runtime.NumCPU()
	for i := 0; i < a.NumChunks(); i++ {
		cs := log.start("pipeline.chunk", root.ID, root.Req)
		c := e.roundTrip(ctx, pl, a, i, log, cs, workers)
		log.end(cs)
		it.chunks = append(it.chunks, c)
	}
	log.end(root)
	return it
}

// roundTrip reads chunk i, runs it through the approximate store and the
// decoder, and measures it against the source.
func (e *pipeEnv) roundTrip(ctx context.Context, pl *videoapp.Pipeline, a *videoapp.ChunkArchive, i int, log *spanLog, parent span, workers int) chunkOutcome {
	info, err := a.Info(i)
	if err != nil {
		return chunkOutcome{err: err}
	}
	log.startRead(parent)
	v, parts, err := a.ReadChunk(i)
	log.endRead()
	if err != nil {
		return chunkOutcome{err: fmt.Errorf("read: %w", err)}
	}
	ts := log.start("pipeline.round_trip", parent.ID, parent.Req)
	seq, flips, err := pl.RoundTripChunk(ctx, v, parts, info.FirstFrame, e.injectSeed)
	log.end(ts)
	if err != nil {
		return chunkOutcome{err: fmt.Errorf("round trip: %w", err)}
	}
	ms := log.start("quality.measure", parent.ID, parent.Req)
	t0 := time.Now()
	psnr, err := quality.PSNRContext(ctx, chunkOf(e.src, info.FirstFrame, info.Frames), seq, workers)
	measure := time.Since(t0)
	log.end(ms)
	if err != nil {
		return chunkOutcome{err: fmt.Errorf("psnr: %w", err)}
	}
	if len(seq.Frames) != info.Frames || math.IsNaN(psnr) || math.IsInf(psnr, 0) {
		return chunkOutcome{err: fmt.Errorf("%d frames for %d, psnr %v", len(seq.Frames), info.Frames, psnr)}
	}
	return chunkOutcome{measure: measure, psnr: psnr, frames: info.Frames, flips: flips}
}

// check compares an iteration with the reference: the archive must be
// bit-identical and every chunk must round-trip to the same PSNR.
func (e *pipeEnv) check(it *iteration) (ok, failed int64) {
	for i := range it.chunks {
		c := &it.chunks[i]
		if c.err == nil {
			switch {
			case it.crc != e.ref.crc || it.cpp != e.ref.cpp:
				c.err = fmt.Errorf("archive differs from the reference")
			case len(it.chunks) != len(e.ref.chunks):
				c.err = fmt.Errorf("%d chunks, reference has %d", len(it.chunks), len(e.ref.chunks))
			case c.psnr != e.ref.chunks[i].psnr || c.frames != e.ref.chunks[i].frames:
				c.err = fmt.Errorf("chunk %d: psnr %v, reference %v", i, c.psnr, e.ref.chunks[i].psnr)
			}
		}
		if c.err != nil {
			fmt.Printf("# chunk %d: %v\n", i, c.err)
			failed++
		} else {
			ok++
		}
	}
	if it.err != nil || len(it.chunks) == 0 {
		fmt.Printf("# iteration: %v\n", it.err)
		failed += int64(len(e.ref.chunks))
	}
	return ok, failed
}

// pipePhase is what one timed phase of pipeline_roundtrip measured.
type pipePhase struct {
	phase        // lat holds one wall time per iteration
	flips        int64
	iterations   int64
	stream       time.Duration
	write        timedWriter // summed over iterations
	measure      time.Duration
	chunkRounds  int64
	sourceFrames int64
	leafReads    int64 // traced: leaf reads inside ReadChunk spans
	leafBytes    int64
}

// measure repeats the round trip until dur has passed.
func (e *pipeEnv) measure(ctx context.Context, dur time.Duration, log *spanLog) (pipePhase, error) {
	if log != nil {
		log.tr.reset()
	}
	clock := startPhase()
	var ph pipePhase
	for time.Since(clock.start) < dur && ctx.Err() == nil {
		t0 := time.Now()
		it := e.iterate(ctx, log)
		ph.lat = append(ph.lat, time.Since(t0))
		ok, failed := e.check(&it)
		ph.ok += ok
		ph.failed += failed
		ph.iterations++
		ph.stream += it.stream
		ph.write.bytes += it.write.bytes
		ph.write.nanos += it.write.nanos
		ph.sourceFrames += int64(len(e.src.Frames))
		for _, c := range it.chunks {
			ph.measure += c.measure
			ph.chunkRounds++
			if c.err == nil {
				ph.frames += int64(c.frames)
				ph.psnrSum += c.psnr
				ph.flips += int64(c.flips)
			}
		}
	}
	clock.stop(&ph.phase)
	if log != nil {
		log.tr.add(log.spans...)
		log.spans = nil
		ph.leafReads, ph.leafBytes = log.reads, log.bytes
	}
	return ph, ctx.Err()
}

// pipelineLayers turns a traced pipeline phase into the per-layer metrics.
func pipelineLayers(tr *tracer, ph pipePhase, m map[string]float64) {
	frames := float64(ph.sourceFrames)
	chunks := float64(ph.chunkRounds)
	perFrame := func(stage string) float64 {
		wall, _ := tr.stage(stage)
		return ratio(us(wall), frames)
	}
	m["codec.encode_us_per_frame"] = perFrame(obs.StageEncode)
	m["core.analyze_us_per_frame"] = perFrame(obs.StageAnalyze)
	m["core.partition_us_per_frame"] = perFrame(obs.StagePartition)
	m["store.footprint_us_per_frame"] = perFrame(obs.StageFootprint)
	m["store.inject_us_per_frame"] = perFrame(obs.StageInject)
	decWall, decodes := tr.stage(obs.StageDecode)
	m["codec.decode_us_per_chunk"] = ratio(us(decWall), float64(decodes))
	m["codec.resync"] = ratio(float64(tr.counter(obs.CtrResync)), float64(decodes))
	m["store.residual_flips"] = ratio(float64(ph.flips), chunks)
	m["store.write_bytes"] = ratio(float64(ph.write.bytes), float64(ph.iterations))
	m["store.write_us"] = ratio(us(time.Duration(ph.write.nanos)), float64(ph.iterations))
	m["quality.measure_us_per_frame"] = ratio(us(ph.measure), frames)

	var stages time.Duration
	for _, s := range []string{obs.StageEncode, obs.StageAnalyze, obs.StagePartition, obs.StageFootprint} {
		w, _ := tr.stage(s)
		stages += w
	}
	m["chunk.stage_parallelism"] = ratio(float64(stages), float64(ph.stream))

	reads := float64(len(tr.spansNamed("store.read_chunk")))
	self := tr.selfTime()
	var readSelf, leafTime time.Duration
	for _, s := range tr.spansNamed("store.read_chunk") {
		readSelf += self[s.ID]
	}
	for _, s := range tr.spansNamed("store.backend.read") {
		leafTime += s.dur()
	}
	m["store.read_chunk_us"] = ratio(us(readSelf), reads)
	m["store.backend.read_us"] = ratio(us(leafTime), reads)
	m["store.backend.reads_per_chunk"] = ratio(float64(ph.leafReads), reads)
	m["store.backend.bytes_per_chunk"] = ratio(float64(ph.leafBytes), reads)
}
