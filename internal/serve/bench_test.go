package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The serve benchmarks measure the serving layer itself, not the flow.
// BenchmarkServeHot is the full HTTP path for a warm key: one real FPU flow
// at scale 0.05 fills the engine's memory tier before the timer starts, and
// every iteration is a memory-tier hit. BenchmarkServeCold is the miss path
// (report lookup in memory and on disk, job table, queue hand-off) with a
// unique key per iteration and a stub job body that returns instantly.
// Baselines live in BENCH_serve.json.

func newBenchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	s, err := NewServer(Config{StoreDir: b.TempDir(), Workers: 2, QueueDepth: 1024})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

func benchGet(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

func BenchmarkServeHot(b *testing.B) {
	_, ts := newBenchServer(b)
	url := ts.URL + "/v1/ppa?" + fpuQuery
	benchGet(b, url) // run the flow once; the report stays in memory
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, url)
	}
}

func BenchmarkServeCold(b *testing.B) {
	s, ts := newBenchServer(b)
	s.report = stubReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, fmt.Sprintf("%s/v1/ppa?%s&seed=%d", ts.URL, fpuQuery, i+1))
	}
}
