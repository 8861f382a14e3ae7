package castore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "v1|ppa|AES|scale=0.5"
	payload := []byte(`{"x":1}` + "\n")
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("empty store Get = ok=%v err=%v", ok, err)
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q vs %q", got, payload)
	}
	// Re-put overwrites cleanly.
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	// No stray temp files survive.
	matches, _ := filepath.Glob(filepath.Join(s.Dir(), "*", "tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

// TestStoreHammer drives concurrent Get/Put over overlapping keys under the
// race detector. The atomicity invariant: a Get observes either a miss or
// the complete, checksum-valid payload of its key — never torn bytes, and
// never another key's payload.
func TestStoreHammer(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var quarantined atomic.Int64
	s.OnQuarantine = func(string, error) { quarantined.Add(1) }

	const keys = 5
	payload := func(k int) []byte {
		// Distinct sizes per key make torn reads detectable.
		return bytes.Repeat([]byte{byte('a' + k)}, 512*(k+1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				k := rng.Intn(keys)
				key := fmt.Sprintf("key-%d", k)
				if rng.Intn(2) == 0 {
					if err := s.Put(key, payload(k)); err != nil {
						t.Errorf("put %s: %v", key, err)
						return
					}
				} else {
					data, ok, err := s.Get(key)
					if err != nil {
						t.Errorf("get %s: %v", key, err)
						return
					}
					if ok && !bytes.Equal(data, payload(k)) {
						t.Errorf("get %s returned wrong payload (%d bytes)", key, len(data))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if q := quarantined.Load(); q != 0 {
		t.Fatalf("hammer quarantined %d entries; writes are not atomic", q)
	}
}

// TestStoreQuarantine corrupts entries in every way the header protects
// against and asserts each reads as a miss, lands in quarantine/, and stops
// shadowing a recompute.
func TestStoreQuarantine(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(path string) error
	}{
		{"garbage", func(p string) error {
			return os.WriteFile(p, []byte("not an entry at all"), 0o644)
		}},
		{"truncated", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)-3], 0o644)
		}},
		{"bitflip", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0x01
			return os.WriteFile(p, data, 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var reasons, paths []string
			s.OnQuarantine = func(path string, reason error) {
				reasons = append(reasons, reason.Error())
				paths = append(paths, path)
			}
			key := "the-key"
			payload := []byte("payload bytes of the entry\n")
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			entryPath := s.EntryPath(key)
			if err := tc.corrupt(entryPath); err != nil {
				t.Fatal(err)
			}
			data, ok, err := s.Get(key)
			if err != nil || ok || data != nil {
				t.Fatalf("corrupted Get = (%q, %v, %v), want clean miss", data, ok, err)
			}
			if len(reasons) != 1 {
				t.Fatalf("OnQuarantine calls = %v, want 1", reasons)
			}
			// The reported path is the post-mortem artifact — it must exist
			// and live under quarantine/.
			if _, err := os.Stat(paths[0]); err != nil {
				t.Fatalf("OnQuarantine reported %s, which does not exist: %v", paths[0], err)
			}
			if filepath.Base(filepath.Dir(paths[0])) != "quarantine" {
				t.Fatalf("OnQuarantine reported %s, want a path under quarantine/", paths[0])
			}
			if n, _ := s.QuarantineLen(); n != 1 {
				t.Fatalf("quarantine holds %d entries, want 1", n)
			}
			if _, err := os.Stat(entryPath); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still at %s", entryPath)
			}
			// The slot is writable again and subsequent loads are clean.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get(key)
			if err != nil || !ok || !bytes.Equal(got, payload) {
				t.Fatalf("re-put Get = (%q, %v, %v)", got, ok, err)
			}
		})
	}
}

// TestStoreKeyMismatch simulates an entry copied to the wrong path (or a
// SHA-256 collision): the header's full key disagrees, so it quarantines.
func TestStoreKeyMismatch(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	pa := s.EntryPath("key-a")
	pb := s.EntryPath("key-b")
	shardB := filepath.Dir(pb)
	if err := os.MkdirAll(shardB, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(pa)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("key-b"); err != nil || ok {
		t.Fatalf("mismatched entry Get = ok=%v err=%v, want miss", ok, err)
	}
	if n, _ := s.QuarantineLen(); n != 1 {
		t.Fatalf("quarantine holds %d entries, want 1", n)
	}
	// key-a itself is untouched.
	if _, ok, _ := s.Get("key-a"); !ok {
		t.Fatal("key-a lost")
	}
}
