package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"videoapp"
	"videoapp/internal/cache"
	"videoapp/internal/obs"
)

// reqHeader carries the client's request span ID to the traced handler.
const reqHeader = "X-Perfbench-Request"

// key names one chunk of one tenant.
type key struct{ t, i int }

// serveEnv is one catalog serving the tenants on a loopback listener.
type serveEnv struct {
	tenants []*tenant
	refs    [][]reference
	cat     *videoapp.Catalog
	url     string
	stop    func() error
	hc      *http.Client
	urls    [][]string
	tr      *tracer       // nil on untraced runs
	leaf    *backendStats // catalog-side leaf reads, traced runs only
}

// setupServe is the timed set-up of a serve workload: sequences, archives,
// references, catalog, listener and, for hot_zipf, the cache warm-up.
func setupServe(ctx context.Context, cfg config, workload string, seed int64) (*serveEnv, error) {
	ts, err := buildTenants(ctx, cfg, seed, workload == "cold_scan")
	if err != nil {
		return nil, err
	}
	refs, err := references(ctx, ts)
	if err != nil {
		return nil, err
	}
	return newServeEnv(ctx, cfg, workload, ts, refs, nil)
}

// newServeEnv opens a catalog over the tenants and serves it on an
// ephemeral 127.0.0.1 port. With a tracer the catalog reports to it, every
// leaf backend is timed and the handler is wrapped in a span.
func newServeEnv(ctx context.Context, cfg config, workload string, ts []*tenant, refs [][]reference, tr *tracer) (*serveEnv, error) {
	e := &serveEnv{tenants: ts, refs: refs, tr: tr}
	var opts []videoapp.ServeOption
	if workload == "cold_scan" {
		opts = append(opts, videoapp.WithCacheBytes(cfg.ColdCacheBytes))
	}
	if tr != nil {
		e.leaf = &backendStats{}
		opts = append(opts, videoapp.WithServeObserver(tr))
	}
	specs := make([]videoapp.ArchiveSpec, len(ts))
	for i, t := range ts {
		specs[i] = videoapp.ArchiveSpec{Name: t.name, Open: func() (videoapp.Backend, error) {
			if tr == nil {
				return t.open(nil), nil
			}
			return t.open(func(b videoapp.Backend) videoapp.Backend {
				return &timedBackend{Backend: b, stats: e.leaf}
			}), nil
		}}
	}
	cat, err := videoapp.NewCatalog(specs, opts...)
	if err != nil {
		return nil, err
	}
	e.cat = cat
	if err := e.listen(); err != nil {
		cat.Close()
		return nil, err
	}
	e.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.Clients,
		DisableCompression:  true,
	}}
	e.urls = make([][]string, len(ts))
	for ti, t := range ts {
		for i := range refs[ti] {
			e.urls[ti] = append(e.urls[ti], fmt.Sprintf("%s/v1/archives/%s/chunks/%d", e.url, t.name, i))
		}
	}
	if workload == "hot_zipf" {
		// Warm the cache with every chunk, checking each response.
		var buf []byte
		for ti := range ts {
			for i := range refs[ti] {
				f, err := e.fetch(ctx, key{ti, i}, 0, &buf)
				if err != nil || !refs[ti][i].matches(f) {
					e.close()
					return nil, fmt.Errorf("warm-up %s chunk %d: status %d: %v", ts[ti].name, i, f.status, err)
				}
			}
		}
	}
	return e, nil
}

// listen starts serving the catalog: through Catalog.Serve untraced, and
// through an http.Server around the span-recording handler when traced.
func (e *serveEnv) listen() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.url = "http://" + l.Addr().String()
	errc := make(chan error, 1)
	if e.tr == nil {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { errc <- e.cat.Serve(ctx, l) }()
		e.stop = func() error {
			cancel()
			return <-errc
		}
		return nil
	}
	hs := &http.Server{Handler: e.timedHandler(e.cat.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { errc <- hs.Serve(l) }()
	e.stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return nil
}

// timedHandler records one serve.handler span per request, parented to
// the client's request span.
func (e *serveEnv) timedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		s := span{Name: "serve.handler", ID: e.tr.newID(), Parent: req, Req: req, Start: e.tr.now()}
		h.ServeHTTP(w, r)
		s.End = e.tr.now()
		e.tr.add(s)
	})
}

func (e *serveEnv) close() {
	e.hc.CloseIdleConnections()
	if err := e.stop(); err != nil {
		fmt.Printf("# server stop: %v\n", err)
	}
	e.cat.Close()
}

// fetched is one chunk response as the client saw it.
type fetched struct {
	status   int
	degraded string
	miss     bool
	body     []byte
}

// fetch GETs one chunk, reading the body into *buf.
func (e *serveEnv) fetch(ctx context.Context, k key, req int64, buf *[]byte) (fetched, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, e.urls[k.t][k.i], nil)
	if err != nil {
		return fetched{}, err
	}
	if req != 0 {
		r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := e.hc.Do(r)
	if err != nil {
		return fetched{}, err
	}
	defer resp.Body.Close()
	f := fetched{
		status:   resp.StatusCode,
		degraded: resp.Header.Get("X-Videoapp-Degraded"),
		miss:     resp.Header.Get("X-Cache") == "miss",
	}
	if n := int(resp.ContentLength); n >= 0 {
		if cap(*buf) < n {
			*buf = make([]byte, n)
		}
		f.body = (*buf)[:n]
		_, err = io.ReadFull(resp.Body, f.body)
	} else {
		f.body, err = io.ReadAll(resp.Body)
	}
	return f, err
}

// matches checks a response against the chunk's reference.
func (r reference) matches(f fetched) bool {
	return f.status == r.status && f.degraded == r.degraded && len(f.body) == r.size &&
		crc32.Checksum(f.body, castagnoli) == r.crc
}

// keys returns one client's request sequence. hot_zipf draws (tenant,
// chunk) from Zipf(1.1) over a seeded ranking of all chunks; cold_scan
// reads one tenant front to back from a seeded start chunk, then moves to
// the next tenant.
func (e *serveEnv) keys(workload string, seed int64, client int) func() key {
	rng := rand.New(rand.NewSource(subSeed(seed, fmt.Sprintf("%s/client%d", workload, client))))
	nt, nc := len(e.refs), len(e.refs[0])
	if workload == "hot_zipf" {
		rank := rand.New(rand.NewSource(subSeed(seed, "zipf/rank"))).Perm(nt * nc)
		z := rand.NewZipf(rng, 1.1, 1, uint64(nt*nc-1))
		return func() key {
			k := rank[z.Uint64()]
			return key{k / nc, k % nc}
		}
	}
	t, i := client%nt, rng.Intn(nc)
	return func() key {
		k := key{t, i}
		if i++; i == nc {
			t, i = (t+1)%nt, rng.Intn(nc)
		}
		return k
	}
}

// servePhase is what one timed phase of a serve workload measured.
type servePhase struct {
	phase
	cache        cache.Stats // deltas over the phase
	readByTenant [][]time.Duration
	replays      int64
	leafReads    int64 // traced: catalog-side leaf reads over the phase
	leafBytes    int64
}

// clientLog is one client goroutine's private record of a phase.
type clientLog struct {
	lat        []time.Duration
	ok, failed int64
	frames     int64
	psnrSum    float64
	spans      *spanLog  // traced runs only
	replay     *replayer // traced runs only
}

// measure runs the closed-loop clients for dur and checks every response.
func (e *serveEnv) measure(ctx context.Context, cfg config, workload string, seed int64, dur time.Duration) (servePhase, error) {
	logs := make([]*clientLog, cfg.Clients)
	for c := range logs {
		logs[c] = &clientLog{}
		if e.tr != nil {
			logs[c].spans = &spanLog{tr: e.tr}
			r, err := newReplayer(e.tenants, logs[c].spans)
			if err != nil {
				return servePhase{}, err
			}
			defer r.close()
			logs[c].replay = r
		}
	}
	if e.tr != nil {
		e.tr.reset()
	}
	cs0 := e.cat.CacheStats()
	var reads0, bytes0 int64
	if e.leaf != nil {
		reads0, bytes0 = e.leaf.reads.Load(), e.leaf.bytes.Load()
	}
	clock := startPhase()
	deadline := clock.start.Add(dur)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			e.client(ctx, logs[c], e.keys(workload, seed, c), deadline)
		}(c)
	}
	wg.Wait()
	var ph servePhase
	clock.stop(&ph.phase)
	cs := e.cat.CacheStats()
	ph.cache = cache.Stats{Hits: cs.Hits - cs0.Hits, Misses: cs.Misses - cs0.Misses, Loads: cs.Loads - cs0.Loads, Evictions: cs.Evictions - cs0.Evictions}
	if e.leaf != nil {
		ph.leafReads, ph.leafBytes = e.leaf.reads.Load()-reads0, e.leaf.bytes.Load()-bytes0
	}
	ph.readByTenant = make([][]time.Duration, len(e.tenants))
	for _, l := range logs {
		ph.lat = append(ph.lat, l.lat...)
		ph.ok += l.ok
		ph.failed += l.failed
		ph.frames += l.frames
		ph.psnrSum += l.psnrSum
		if l.replay != nil {
			e.tr.add(l.spans.spans...)
			ph.replays += l.replay.n
			for t, d := range l.replay.readByTenant {
				ph.readByTenant[t] = append(ph.readByTenant[t], d...)
			}
		}
	}
	return ph, ctx.Err()
}

// client is one closed-loop client: it sends the next request as soon as
// the previous response has been read and checked.
func (e *serveEnv) client(ctx context.Context, l *clientLog, next func() key, deadline time.Time) {
	var buf []byte
	for time.Now().Before(deadline) && ctx.Err() == nil {
		k := next()
		rs := l.spans.start("client.request", 0, 0)
		rs.Req = rs.ID
		t0 := time.Now()
		f, err := e.fetch(ctx, k, rs.ID, &buf)
		lat := time.Since(t0)
		l.spans.end(rs)
		l.lat = append(l.lat, lat)
		ref := e.refs[k.t][k.i]
		ok := err == nil && ref.matches(f)
		if ok && l.replay != nil && f.miss {
			if err := l.replay.replay(ctx, rs.ID, k); err != nil {
				fmt.Printf("# replay %s chunk %d: %v\n", e.tenants[k.t].name, k.i, err)
				ok = false
			}
		}
		if !ok {
			l.failed++
			continue
		}
		l.ok++
		l.frames += int64(ref.frames)
		l.psnrSum += ref.psnr
	}
}

// replayer re-runs the cold chunk path of each missed request layer by
// layer, through archives opened over the same backend stack with the
// leaf reads timed.
type replayer struct {
	log          *spanLog
	archives     []*videoapp.ChunkArchive
	buf          bytes.Buffer
	n            int64 // chunks replayed
	readByTenant [][]time.Duration
}

func newReplayer(ts []*tenant, log *spanLog) (*replayer, error) {
	r := &replayer{log: log, readByTenant: make([][]time.Duration, len(ts))}
	for _, t := range ts {
		a, err := videoapp.OpenArchiveBackend(t.open(log.timed))
		if err != nil {
			r.close()
			return nil, err
		}
		r.archives = append(r.archives, a)
	}
	return r, nil
}

func (r *replayer) replay(ctx context.Context, req int64, k key) error {
	r.n++
	root := r.log.start("replay", req, req)
	_, _, read, err := materialize(ctx, r.archives[k.t], k.i, &r.buf, r.log, root)
	r.log.end(root)
	r.readByTenant[k.t] = append(r.readByTenant[k.t], read)
	return err
}

func (r *replayer) close() {
	for _, a := range r.archives {
		a.Close()
	}
}

// serveLayers turns a traced serve phase into the per-layer metrics.
func serveLayers(e *serveEnv, ph servePhase, m map[string]float64) {
	tr := e.tr
	reqs := float64(ph.ok + ph.failed)
	handler := map[int64]time.Duration{}
	var handlerSum time.Duration
	for _, s := range tr.spansNamed("serve.handler") {
		handler[s.Req] = s.dur()
		handlerSum += s.dur()
	}
	var socketSum time.Duration
	var socketN int
	for _, s := range tr.spansNamed("client.request") {
		if h, ok := handler[s.ID]; ok {
			socketSum += s.dur() - h
			socketN++
		}
	}
	m["serve.handler_us"] = ratio(us(handlerSum), float64(len(handler)))
	m["serve.socket_us"] = ratio(us(socketSum), float64(socketN))
	matWall, mats := tr.stage(obs.StageServeChunk)
	m["serve.materialize_us"] = ratio(us(matWall), float64(mats))
	m["serve.requests"] = float64(tr.counter(obs.CtrServeRequests))
	m["serve.errors"] = float64(tr.counter(obs.CtrServeErrors))
	m["serve.degraded"] = float64(tr.counter(obs.CtrServeDegraded))

	lookups := float64(ph.cache.Hits + ph.cache.Misses)
	m["cache.hit_ratio"] = ratio(float64(ph.cache.Hits), lookups)
	m["cache.loads_per_req"] = ratio(float64(ph.cache.Loads), reqs)
	m["cache.evictions_per_req"] = ratio(float64(ph.cache.Evictions), reqs)

	issued := float64(tr.counter(obs.CtrServePrefetchIssued))
	m["prefetch.issued"] = issued
	m["prefetch.useful_ratio"] = ratio(float64(tr.counter(obs.CtrServePrefetchUseful)), issued)
	m["prefetch.wasted"] = float64(tr.counter(obs.CtrServePrefetchWasted))

	m["store.backend.reads_per_chunk"] = ratio(float64(ph.leafReads), float64(mats))
	m["store.backend.bytes_per_chunk"] = ratio(float64(ph.leafBytes), float64(mats))
	m["store.read_retries"] = ratio(float64(tr.counter(obs.CtrReadRetries)), float64(mats))
	m["store.crc_failures"] = ratio(float64(tr.counter(obs.CtrCRCFailures)), float64(mats))
	m["store.degraded_streams"] = ratio(float64(tr.counter(obs.CtrDegradedStreams)), float64(mats))
	_, decodes := tr.stage(obs.StageDecode)
	m["codec.resync"] = ratio(float64(tr.counter(obs.CtrResync)), float64(decodes))

	// The replayed layers, per replayed chunk.
	self := tr.selfTime()
	n := float64(ph.replays)
	sum := func(name string, self map[int64]time.Duration) float64 {
		var total time.Duration
		for _, s := range tr.spansNamed(name) {
			if self != nil {
				total += self[s.ID]
			} else {
				total += s.dur()
			}
		}
		return ratio(us(total), n)
	}
	m["store.backend.read_us"] = sum("store.backend.read", nil)
	m["store.read_chunk_us"] = sum("store.read_chunk", self)
	m["codec.decode_us_per_chunk"] = sum("codec.decode", nil)
	m["y4m.render_us_per_chunk"] = sum("y4m.render", nil)
	m["store.retry_wait_us"] = retryWait(e, ph)
}

// retryWait is the faulty tenant's mean replayed read time minus the
// median of the clean tenants' replayed read times: the time the retry,
// verify and degrade ladder adds to a read. 0 without a faulty tenant.
func retryWait(e *serveEnv, ph servePhase) float64 {
	var faulty, clean []time.Duration
	for t, ds := range ph.readByTenant {
		if e.tenants[t].faults != nil {
			faulty = append(faulty, ds...)
		} else {
			clean = append(clean, ds...)
		}
	}
	if len(faulty) == 0 || len(clean) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range faulty {
		sum += d
	}
	slices.Sort(clean)
	return us(sum)/float64(len(faulty)) - us(clean[len(clean)/2])
}
