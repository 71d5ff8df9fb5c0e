package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"
)

// coldGet serves chunk i with its cache entry evicted first, so the request
// pays read, decode and render, and returns the response.
func coldGet(s *Server, i int) *httptest.ResponseRecorder {
	s.cat.evictCached(DefaultArchiveName, i)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/chunks/%d", i), nil))
	return rec
}

// TestColdDecodeRecyclesFrames decodes every chunk cold, twice over, with
// each chunk's decoded frames returned to the frame pool before the next
// decode draws from it. Byte-identical y4m against the reference decode
// shows that no stale pixels carry from one chunk into another; under
// -race (make race) it also shows that no recycled frame is still in use.
func TestColdDecodeRecyclesFrames(t *testing.T) {
	a := buildArchive(t, 3)
	want := make([][]byte, a.NumChunks())
	for i := range want {
		want[i] = wantChunkBody(t, a, i)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := New(a, WithWorkers(workers), WithPrefetch(0))
			for pass := 0; pass < 2; pass++ {
				for i := range want {
					rec := coldGet(s, i)
					if rec.Code != http.StatusOK {
						t.Fatalf("pass %d chunk %d: status %d: %s", pass, i, rec.Code, rec.Body)
					}
					if !bytes.Equal(rec.Body.Bytes(), want[i]) {
						t.Fatalf("pass %d chunk %d: body differs from the reference decode", pass, i)
					}
				}
			}
		})
	}
}

// coldChunkAllocs pins the allocations of one cold chunk request with one
// decode worker: cache eviction, archive read, decode into recycled frames,
// y4m render, cache insert and the handler stack.
const coldChunkAllocs = 129

func TestColdChunkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the -race sync.Pool drops recycled frames at random")
	}
	s := New(buildArchive(t, 2), WithWorkers(1), WithPrefetch(0))
	coldGet(s, 0) // fill the frame pool and lazily built state
	// A collection mid-measurement empties the frame pool, and the next
	// decode re-allocates its frames; with GC off the count is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(50, func() {
		if rec := coldGet(s, 0); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if got > coldChunkAllocs {
		t.Fatalf("cold chunk: %.0f allocs/op, pinned at %d", got, coldChunkAllocs)
	}
}
