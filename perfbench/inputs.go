package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"videoapp"
	"videoapp/internal/codec"
	"videoapp/internal/faultio"
	"videoapp/internal/frame"
	"videoapp/internal/quality"
	"videoapp/internal/synth"
	"videoapp/internal/y4m"
)

// config sizes every workload. The command runs defaultConfig; the test
// runs a smaller one.
type config struct {
	W, H           int     // frame geometry of every generated sequence
	GOP            int     // encoder GOP; one GOP per chunk
	TenantChunks   int     // chunks per serving tenant
	PipelineChunks int     // chunks of the pipeline_roundtrip source
	Clients        int     // closed-loop client goroutines
	Setups         int     // set-up repetitions; setup_s is their median
	ColdCacheBytes int64   // cold_scan decoded-chunk cache budget
	CorruptRate    float64 // faulty tenant: share of approximate streams corrupted
	TraceDir       string  // where traced runs write their spans
}

func defaultConfig() config {
	return config{
		W: 176, H: 144, GOP: 8,
		TenantChunks:   16,
		PipelineChunks: 16,
		Clients:        min(2, runtime.NumCPU()),
		Setups:         3,
		// Eight cache shards of 384 KiB each hold one 300 KB rendered
		// chunk apiece: eight of the 48 chunks fit, so scans cannot re-hit.
		ColdCacheBytes: 3 << 20,
		CorruptRate:    0.5,
	}
}

// tenantPresets are the serving tenants; the faulty one is read through
// faultio on cold_scan.
var tenantPresets = []string{"crew_like", "news_like", "sports_like"}

const (
	faultyTenant   = "sports_like"
	pipelinePreset = "parkrun_like"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// source generates a preset at the configured geometry. The content is
// the preset's own, the same for every workload seed, so that seeds vary
// the traffic, the faults and the injection but not the amount of work.
func source(cfg config, preset string, chunks int) (*frame.Sequence, error) {
	sc, ok := synth.PresetByName(preset)
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	return synth.Generate(sc.ScaleTo(cfg.W, cfg.H, chunks*cfg.GOP)), nil
}

// newPipeline is the paper pipeline every workload writes archives with:
// one GOP per chunk, nproc workers.
func newPipeline(cfg config, o videoapp.Observer) *videoapp.Pipeline {
	p := videoapp.DefaultParams()
	p.GOPSize = cfg.GOP
	opts := []videoapp.Option{videoapp.WithParams(p), videoapp.WithWorkers(runtime.NumCPU()), videoapp.WithChunkGOPs(1)}
	if o != nil {
		opts = append(opts, videoapp.WithObserver(o))
	}
	return videoapp.NewPipeline(opts...)
}

// tenant is one serving archive with the data its references need.
type tenant struct {
	name    string
	src     *frame.Sequence
	archive []byte
	stats   videoapp.StorageStats
	faults  *faultio.Profile // nil for a clean tenant
	approx  [][2]int64       // approximate-stream byte ranges, sorted
}

// buildTenants generates the three tenant sequences and writes each as a
// chunked archive through the public pipeline.
func buildTenants(ctx context.Context, cfg config, seed int64, faulty bool) ([]*tenant, error) {
	var out []*tenant
	for _, name := range tenantPresets {
		src, err := source(cfg, name, cfg.TenantChunks)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		_, st, err := newPipeline(cfg, nil).StreamToArchive(ctx, videoapp.SequenceSource(src), &buf)
		if err != nil {
			return nil, fmt.Errorf("archiving %s: %w", name, err)
		}
		t := &tenant{name: name, src: src, archive: buf.Bytes(), stats: st}
		if faulty && name == faultyTenant {
			t.faults = &faultio.Profile{Seed: subSeed(seed, "faultio"), CorruptRate: cfg.CorruptRate}
			if t.approx, err = approxRanges(t.archive); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// approxRanges locates every chunk's approximate-stream bytes: a VACS v2
// chunk record starts with the "CHNK" marker, and its precise and pivot
// region lengths sit at bytes 12..20; the approximate streams fill the rest
// of the chunk's payload.
func approxRanges(archive []byte) ([][2]int64, error) {
	a, err := videoapp.OpenArchiveBackend(videoapp.NewSnapshotBackend(archive))
	if err != nil {
		return nil, err
	}
	defer a.Close()
	var out [][2]int64
	rec := int64(25) // archive header length
	for i := 0; i < a.NumChunks(); i++ {
		info, err := a.Info(i)
		if err != nil {
			return nil, err
		}
		if rec+20 > int64(len(archive)) || string(archive[rec:rec+4]) != "CHNK" {
			return nil, fmt.Errorf("chunk %d: no record marker at %d", i, rec)
		}
		precise := int64(binary.BigEndian.Uint32(archive[rec+12:]))
		pivots := int64(binary.BigEndian.Uint32(archive[rec+16:]))
		out = append(out, [2]int64{info.Offset + precise + pivots, info.Offset + info.Length})
		rec = info.Offset + info.Length
	}
	return out, nil
}

// approxFaults sends reads that fall inside an approximate-stream range
// through the seeded faultio decorator and every other read (headers,
// chunk records, precise regions, pivot tables) straight to the clean
// backend. The damage therefore costs quality, never availability: every
// chunk still serves 200, degraded where a stream failed its CRC.
type approxFaults struct {
	videoapp.Backend
	faulty *faultio.Reader
	ranges [][2]int64
}

func (b *approxFaults) ReadAt(p []byte, off int64) (int, error) {
	i := sort.Search(len(b.ranges), func(i int) bool { return b.ranges[i][1] > off })
	if i < len(b.ranges) && off >= b.ranges[i][0] && off+int64(len(p)) <= b.ranges[i][1] {
		return b.faulty.ReadAt(p, off)
	}
	return b.Backend.ReadAt(p, off)
}

// open returns a fresh backend stack for the tenant: the in-memory leaf,
// wrapped by leaf when set, under the faultio decorator when the tenant is
// faulty.
func (t *tenant) open(leaf func(videoapp.Backend) videoapp.Backend) videoapp.Backend {
	b := videoapp.NewSnapshotBackend(t.archive)
	if leaf != nil {
		b = leaf(b)
	}
	if t.faults != nil {
		b = &approxFaults{Backend: b, faulty: faultio.Wrap(b, *t.faults), ranges: t.approx}
	}
	return b
}

// reference is what one chunk response must be.
type reference struct {
	status   int
	degraded string // X-Videoapp-Degraded value, "" when clean
	size     int
	crc      uint32  // CRC-32C of the body
	frames   int     // frames in the chunk
	psnr     float64 // mean luma PSNR against the source frames
}

// materialize runs the cold chunk path by hand — ReadChunkContext,
// DecodeContext, y4m.Write — and returns the read's wall time. With a log,
// each layer is a span under parent.
func materialize(ctx context.Context, a *videoapp.ChunkArchive, i int, buf *bytes.Buffer, log *spanLog, parent span) (videoapp.ChunkRead, *frame.Sequence, time.Duration, error) {
	log.startRead(parent)
	t0 := time.Now()
	cr, err := a.ReadChunkContext(ctx, i)
	read := time.Since(t0)
	log.endRead()
	if err != nil {
		return cr, nil, read, err
	}
	ds := log.start("codec.decode", parent.ID, parent.Req)
	seq, err := codec.DecodeContext(ctx, cr.Video, codec.DecodeOptions{}, 0)
	log.end(ds)
	if err != nil {
		return cr, nil, read, err
	}
	rs := log.start("y4m.render", parent.ID, parent.Req)
	buf.Reset()
	err = y4m.Write(buf, seq)
	log.end(rs)
	return cr, seq, read, err
}

// references computes every chunk's expected response with direct calls
// through the same backend stack the catalog serves from.
func references(ctx context.Context, ts []*tenant) ([][]reference, error) {
	out := make([][]reference, len(ts))
	var buf bytes.Buffer
	for ti, t := range ts {
		a, err := videoapp.OpenArchiveBackend(t.open(nil))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.name, err)
		}
		for i := 0; i < a.NumChunks(); i++ {
			cr, seq, _, err := materialize(ctx, a, i, &buf, nil, span{})
			if err != nil {
				a.Close()
				return nil, fmt.Errorf("%s chunk %d: %w", t.name, i, err)
			}
			info, _ := a.Info(i)
			psnr, err := quality.PSNR(chunkOf(t.src, info.FirstFrame, info.Frames), seq)
			if err != nil || math.IsInf(psnr, 0) || math.IsNaN(psnr) {
				a.Close()
				return nil, fmt.Errorf("%s chunk %d: psnr %v: %v", t.name, i, psnr, err)
			}
			out[ti] = append(out[ti], reference{
				status:   200,
				degraded: strings.Join(cr.Degraded, ","),
				size:     buf.Len(),
				crc:      crc32.Checksum(buf.Bytes(), castagnoli),
				frames:   info.Frames,
				psnr:     psnr,
			})
		}
		a.Close()
	}
	return out, nil
}

// chunkOf returns frames [first, first+n) of seq as a sequence.
func chunkOf(seq *frame.Sequence, first, n int) *frame.Sequence {
	return &frame.Sequence{Name: seq.Name, FPS: seq.FPS, Frames: seq.Frames[first : first+n]}
}
