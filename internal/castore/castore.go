// Package castore is the repository's content-addressed entry store: one
// file per cache key, content-addressed by the SHA-256 of the key and sharded
// over 256 subdirectories so no single directory grows unboundedly. The
// staged engine's per-stage artifact store is an instance of it; the serving
// layer keeps its experiment renders in the same instance.
package castore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Store is a persistent key→payload store.
//
// Entry format — a one-line JSON header followed by the raw payload:
//
//	{"version":1,"key":"<full cache key>","sum":"<sha256 of payload>","len":N}\n
//	<payload bytes>
//
// The header carries the full (unhashed) key so a hash collision or a file
// copied to the wrong path reads as a mismatch, and the payload checksum so
// torn or bit-rotted entries are detected. Writes are atomic: the entry is
// written to a temp file in the destination directory, fsynced, and renamed
// into place, so a reader never observes a partial entry and a crash never
// leaves one behind under a final name.
//
// Loads are corruption-tolerant: any malformed entry — unparsable header,
// key mismatch, checksum mismatch, truncation — is quarantined (renamed into
// dir/quarantine/ for post-mortem) and reported as a miss, so one bad file
// costs one recompute, never an outage.
//
// A Store is safe for concurrent use by any number of goroutines and, thanks
// to the atomic rename protocol, by cooperating processes sharing the
// directory.
type Store struct {
	dir string
	// OnQuarantine, when set, observes every quarantined entry (metrics,
	// logging): path is where the bad entry now lives — normally under
	// quarantine/ — and reason is the verification failure. Called
	// synchronously from Get.
	OnQuarantine func(path string, reason error)
}

type storeHeader struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Sum     string `json:"sum"`
	Len     int    `json:"len"`
}

const storeVersion = 1

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("castore: store dir must be non-empty")
	}
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("castore: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path returns (shard directory, entry path) for a key.
func (s *Store) path(key string) (string, string) {
	h := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(h[:])
	shard := filepath.Join(s.dir, name[:2])
	return shard, filepath.Join(shard, name+".entry")
}

// EntryPath returns the path an entry for key lives at (whether or not one
// exists) — exported for corruption tests and post-mortem tooling.
func (s *Store) EntryPath(key string) string {
	_, p := s.path(key)
	return p
}

// Put atomically writes the payload for a key. Re-putting a key overwrites
// its entry (the payload for a key is immutable in practice — flows are
// deterministic — so an overwrite stores identical bytes).
func (s *Store) Put(key string, payload []byte) error {
	shard, dst := s.path(key)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("castore: put: %w", err)
	}
	sum := sha256.Sum256(payload)
	hdr, err := json.Marshal(storeHeader{
		Version: storeVersion,
		Key:     key,
		Sum:     hex.EncodeToString(sum[:]),
		Len:     len(payload),
	})
	if err != nil {
		return fmt.Errorf("castore: put: %w", err)
	}
	tmp, err := os.CreateTemp(shard, "tmp-*")
	if err != nil {
		return fmt.Errorf("castore: put: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(append(hdr, '\n')); err != nil {
		return fmt.Errorf("castore: put: %w", err)
	}
	if _, err := tmp.Write(payload); err != nil {
		return fmt.Errorf("castore: put: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("castore: put: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return fmt.Errorf("castore: put: %w", err)
	}
	tmp = nil
	if err := os.Rename(name, dst); err != nil {
		os.Remove(name)
		return fmt.Errorf("castore: put: %w", err)
	}
	return nil
}

// Get loads the payload for a key. A clean miss returns (nil, false, nil); a
// corrupted entry is quarantined and also reported as a miss — the caller
// recomputes and re-puts.
func (s *Store) Get(key string) ([]byte, bool, error) {
	_, p := s.path(key)
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("castore: get: %w", err)
	}
	payload, err := s.verify(key, data)
	if err != nil {
		s.quarantine(p, err)
		return nil, false, nil
	}
	return payload, true, nil
}

// verify checks an entry's framing, key and checksum, returning the payload.
func (s *Store) verify(key string, data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, errors.New("no header line")
	}
	var hdr storeHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, fmt.Errorf("bad header: %w", err)
	}
	if hdr.Version != storeVersion {
		return nil, fmt.Errorf("unsupported version %d", hdr.Version)
	}
	if hdr.Key != key {
		return nil, fmt.Errorf("key mismatch: entry holds %q", hdr.Key)
	}
	payload := data[nl+1:]
	if len(payload) != hdr.Len {
		return nil, fmt.Errorf("truncated: %d of %d payload bytes", len(payload), hdr.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != hdr.Sum {
		return nil, errors.New("payload checksum mismatch")
	}
	return payload, nil
}

// quarantine moves a bad entry aside so it stops shadowing recomputes but
// stays available for diagnosis. OnQuarantine receives the path the entry
// ended up at (inside quarantine/), so the report points at a file that
// exists.
func (s *Store) quarantine(path string, reason error) {
	dst := filepath.Join(s.dir, "quarantine", filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		if _, serr := os.Stat(path); serr != nil {
			// The source is gone: another goroutine quarantined it first and
			// already reported it.
			return
		}
		// The entry exists but cannot be moved (permissions, a cross-device
		// quarantine dir, ...). Removing it keeps the hot path clean, but the
		// post-mortem artifact is lost — report that rather than swallow it.
		os.Remove(path)
		dst = path
		reason = fmt.Errorf("%w (quarantine rename failed: %v; entry deleted)", reason, err)
	}
	if s.OnQuarantine != nil {
		s.OnQuarantine(dst, reason)
	}
}

// Len counts the live entries (excluding quarantine), mainly for tests and
// health reporting.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "quarantine" {
				return fs.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) == ".entry" {
			n++
		}
		return nil
	})
	return n, err
}

// QuarantineLen counts quarantined entries.
func (s *Store) QuarantineLen() (int, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "quarantine"))
	if err != nil {
		return 0, err
	}
	return len(ents), nil
}
