// Package artifact is the disk tier of the compiled-artifact store
// (ROADMAP item 4): a content-addressed directory of serialised compiled
// modules keyed by the process-independent half of the compile-cache key.
// A fleet of processes sharing one directory compiles each function once;
// every later process — or the same process after a restart — loads the
// typed module from disk and only re-runs code generation.
//
// The store is deliberately dumb about what it holds: payloads are opaque
// bytes (the codegen.Marshal library format) and the caller owns key
// derivation. What the store does own is integrity and atomicity:
//
//   - Writes go to a temp file in the same directory and are renamed into
//     place, so readers never observe a partial entry and concurrent
//     writers of the same key settle on one complete file.
//   - Every entry carries a header — format magic+version, the full
//     32-byte content key, payload length, and a SHA-256 payload checksum.
//     A read validates all four; any mismatch (torn write survived a
//     crash, bit rot, a truncated file, a format bump) deletes the entry
//     and reports a clean miss. Corruption is never an error the caller
//     has to handle — the compile pipeline just recompiles and rewrites.
//
// Entries whose compiled code depends on process-local state (function-
// registry calls, CCF.RegDeps) must not reach the store; core enforces
// that gate before calling Put, mirroring the ExportLibrary rules.
//
// Several processes may share one directory, with no lock between them:
//
//   - Writes are temp file + rename, so no process reads a partial entry.
//   - Put is idempotent per content key: the key determines the payload, so
//     two processes writing one key write the same bytes, and the last rename
//     wins harmlessly.
//   - An entry a peer evicted or dropped is a clean miss, and a reader that
//     had the file open still reads it whole.
//   - Each handle's Stats count what that handle did and saw (its Open scan,
//     its writes, drops and evictions), so with peers writing they drift from
//     the directory's true footprint, and the SetMaxBytes bound is enforced
//     against that count: a handle evicts what it ranks in the directory,
//     peers' entries included, once its own count passes the bound.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// formatMagic versions the on-disk entry layout. Bumping the trailing
// digits invalidates every existing entry: readers treat an unknown magic
// as corruption, drop the file, and fall through to a recompile.
const formatMagic = "WCAF0001"

const (
	keyLen    = sha256.Size
	sumLen    = sha256.Size
	headerLen = len(formatMagic) + keyLen + 8 + sumLen // + payload

	// maxPayload bounds a single entry (64 MiB). Serialised modules are
	// kilobytes; anything larger is corruption, not data.
	maxPayload = 64 << 20

	entryExt = ".wca"
)

// Stats is a snapshot of store activity since Open (counters) plus the
// current on-disk footprint (gauges). BytesOnDisk/Entries track entries
// this store instance has observed: the Open scan plus its own writes,
// drops, and evictions.
type Stats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Writes       uint64 `json:"writes"`
	WriteErrors  uint64 `json:"write_errors"`
	CorruptDrops uint64 `json:"corrupt_drops"`
	Evictions    uint64 `json:"evictions"`
	// EvictionPasses counts the times the store went over its bound and
	// ranked its entries; one pass of a memory-backed store evicts many.
	EvictionPasses uint64 `json:"eviction_passes"`
	BytesOnDisk    int64  `json:"bytes_on_disk"`
	Entries        int    `json:"entries"`
}

// Store is a handle on one artifact directory. Safe for concurrent use by
// any number of goroutines; multiple processes may share the directory
// (atomic rename keeps entries consistent, and cross-process races on the
// same key converge because the content key determines the payload).
type Store struct {
	dir string

	mu           sync.Mutex
	maxBytes     int64 // 0 = unbounded
	bytes        int64
	entries      int
	hits         uint64
	misses       uint64
	writes       uint64
	writeErrors  uint64
	corruptDrops uint64
	evictions    uint64
	evictPasses  uint64

	// mem, when non-nil, makes the store memory-backed (OpenMemory): the
	// store without a filesystem. Headers and checksums are skipped — bytes
	// in a map cannot tear — but the Get/Put/eviction contract is identical.
	mem    map[string]memEntry
	memSeq uint64

	// hitCounts tallies Get hits per entry for this store instance.
	// Eviction is least-frequently-used before oldest: an entry every
	// session reloads outlives a burst of one-shot compiles even when the
	// burst is newer. Counts are process-local (not persisted), so a fresh
	// process starts from zero and age breaks the ties.
	hitCounts map[string]uint64
}

// memEntry is one memory-backed payload; seq orders eviction (oldest
// first, standing in for the disk tier's mtime).
type memEntry struct {
	payload []byte
	seq     uint64
}

// Open creates (if needed) and scans the artifact directory. The scan
// only sizes the existing footprint; entry validation happens lazily on
// Get, so a directory full of stale or corrupt entries opens instantly.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	s := &Store{dir: dir, hitCounts: map[string]uint64{}}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != entryExt {
			continue
		}
		if info, err := e.Info(); err == nil {
			s.bytes += info.Size()
			s.entries++
		}
	}
	return s, nil
}

// DefaultMemoryBytes bounds a memory-backed store unless SetMaxBytes says
// otherwise: every compile of a process attached to one writes into it, so
// without a bound a loop that compiles distinct functions grows the heap.
const DefaultMemoryBytes = 16 << 20

// OpenMemory returns a memory-backed store: same keying, counters and
// eviction order as the disk tier, no filesystem, and — unlike the disk
// tier, which is unbounded until SetMaxBytes — bounded at
// DefaultMemoryBytes from the start. Entries die with the process; tests
// and benchmarks use it to exercise the store without touching disk.
func OpenMemory() *Store {
	return &Store{mem: map[string]memEntry{}, hitCounts: map[string]uint64{}, maxBytes: DefaultMemoryBytes}
}

// Dir returns the store directory ("" for a memory-backed store).
func (s *Store) Dir() string { return s.dir }

// InMemory reports whether the store is memory-backed.
func (s *Store) InMemory() bool { return s.mem != nil }

// SetMaxBytes bounds the footprint (0 = unbounded) and, if the bound is
// already exceeded, evicts down to it in the order evictLocked ranks. Returns
// the previous bound.
func (s *Store) SetMaxBytes(n int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.maxBytes
	if n < 0 {
		n = 0
	}
	s.maxBytes = n
	s.evictLocked(n)
	return prev
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:           s.hits,
		Misses:         s.misses,
		Writes:         s.writes,
		WriteErrors:    s.writeErrors,
		CorruptDrops:   s.corruptDrops,
		Evictions:      s.evictions,
		EvictionPasses: s.evictPasses,
		BytesOnDisk:    s.bytes,
		Entries:        s.entries,
	}
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, hex.EncodeToString([]byte(key))+entryExt)
}

// Get returns the payload stored under key, or (nil, false) on a miss.
// A present-but-invalid entry — wrong magic (format bump), key mismatch,
// bad length, checksum failure — is deleted and reported as a miss.
// The payload is read-only: on a memory-backed store it is the store's own
// slice, and callers may keep a reference to it but must never write to it.
func (s *Store) Get(key string) ([]byte, bool) {
	if len(key) != keyLen {
		return nil, false
	}
	if s.mem != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		e, ok := s.mem[key]
		if !ok {
			s.misses++
			return nil, false
		}
		s.hits++
		s.hitCounts[key]++
		return e.payload, true
	}
	p := s.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	payload, ok := validate(raw, key)
	if !ok {
		s.drop(p, key, int64(len(raw)))
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.hitCounts[key]++
	s.mu.Unlock()
	return payload, true
}

// HitCount returns how many Get hits this store instance has served for
// key — the frequency the LFU eviction order is built from.
func (s *Store) HitCount(key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hitCounts[key]
}

// validate checks an entry's header against the expected key and returns
// the payload on success.
func validate(raw []byte, key string) ([]byte, bool) {
	if len(raw) < headerLen {
		return nil, false
	}
	off := 0
	if string(raw[:len(formatMagic)]) != formatMagic {
		return nil, false
	}
	off += len(formatMagic)
	if string(raw[off:off+keyLen]) != key {
		return nil, false
	}
	off += keyLen
	plen := binary.BigEndian.Uint64(raw[off : off+8])
	off += 8
	if plen > maxPayload || int64(plen) != int64(len(raw)-headerLen) {
		return nil, false
	}
	sum := raw[off : off+sumLen]
	off += sumLen
	payload := raw[off:]
	got := sha256.Sum256(payload)
	if string(got[:]) != string(sum) {
		return nil, false
	}
	return payload, true
}

// DropUndecodable removes an entry whose payload passed the store's
// integrity checks but could not be decoded by the caller (e.g. a module
// written by an incompatible serialiser under the same store format).
// Counted as a corrupt drop so the fleet's /metrics surfaces it.
func (s *Store) DropUndecodable(key string) {
	if len(key) != keyLen {
		return
	}
	if s.mem != nil {
		s.mu.Lock()
		if e, ok := s.mem[key]; ok {
			delete(s.mem, key)
			delete(s.hitCounts, key)
			s.bytes -= int64(len(e.payload))
			s.entries--
		}
		s.corruptDrops++
		s.mu.Unlock()
		return
	}
	p := s.path(key)
	if info, err := os.Stat(p); err == nil {
		s.drop(p, key, info.Size())
	}
}

// drop removes a corrupt entry and adjusts the footprint accounting.
func (s *Store) drop(path, key string, size int64) {
	err := os.Remove(path)
	s.mu.Lock()
	s.corruptDrops++
	if err == nil {
		delete(s.hitCounts, key)
		s.bytes -= size
		s.entries--
		if s.bytes < 0 {
			s.bytes = 0
		}
		if s.entries < 0 {
			s.entries = 0
		}
	}
	s.mu.Unlock()
}

// Put stores payload under key. Content addressing makes Put idempotent:
// if the entry already exists it is left untouched (same key ⇒ same
// payload). Write failures are counted and swallowed — the disk tier is
// an optimisation, never a correctness dependency.
func (s *Store) Put(key string, payload []byte) {
	if len(key) != keyLen || len(payload) == 0 || len(payload) > maxPayload {
		return
	}
	if s.mem != nil {
		s.mu.Lock()
		if _, ok := s.mem[key]; !ok {
			s.memSeq++
			s.mem[key] = memEntry{payload: append([]byte{}, payload...), seq: s.memSeq}
			s.writes++
			s.bytes += int64(len(payload))
			s.entries++
			s.evictLocked(s.lowWater())
		}
		s.mu.Unlock()
		return
	}
	p := s.path(key)
	if _, err := os.Stat(p); err == nil {
		return // already stored
	}
	buf := encodeEntry(key, payload)
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		s.noteWriteError()
		return
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmpName)
		s.noteWriteError()
		return
	}
	if err := os.Rename(tmpName, p); err != nil {
		os.Remove(tmpName)
		s.noteWriteError()
		return
	}
	s.mu.Lock()
	s.writes++
	s.bytes += int64(len(buf))
	s.entries++
	s.evictLocked(s.lowWater())
	s.mu.Unlock()
}

// encodeEntry lays out one entry: magic, key, payload length, payload
// digest, payload.
func encodeEntry(key string, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload))
	buf = append(buf, formatMagic...)
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return append(buf, payload...)
}

func (s *Store) noteWriteError() {
	s.mu.Lock()
	s.writeErrors++
	s.mu.Unlock()
}

// lowWater is what a Put past the bound evicts down to: 7/8 of the bound.
// Ranking the entries costs a scan and a sort (on disk, a ReadDir too), and a
// store at its bound would pay it on every Put; evicting an eighth makes room
// for the next many.
func (s *Store) lowWater() int64 { return s.maxBytes - s.maxBytes/8 }

// evictCand is one entry as eviction ranks it; path is empty in memory.
type evictCand struct {
	key, path string
	size, age int64 // age: mtime on disk, insertion order in memory
	hits      uint64
}

// evictLocked enforces maxBytes: once the store is over it, entries go
// least-frequently-used first (this instance's hit tally), oldest first among
// equals, until at most target bytes remain. Called with s.mu held.
func (s *Store) evictLocked(target int64) {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	s.evictPasses++
	for _, c := range s.candidatesLocked() {
		if s.bytes <= target {
			break
		}
		if s.mem != nil {
			delete(s.mem, c.key)
		} else if os.Remove(c.path) != nil {
			continue
		}
		delete(s.hitCounts, c.key)
		s.bytes -= c.size
		s.entries--
		s.evictions++
	}
	s.bytes, s.entries = max(s.bytes, 0), max(s.entries, 0)
}

// candidatesLocked lists the entries in eviction order.
func (s *Store) candidatesLocked() []evictCand {
	var cands []evictCand
	if s.mem != nil {
		for k, e := range s.mem {
			cands = append(cands, evictCand{key: k, size: int64(len(e.payload)), age: int64(e.seq), hits: s.hitCounts[k]})
		}
	} else {
		ents, err := os.ReadDir(s.dir)
		if err != nil {
			return nil
		}
		for _, e := range ents {
			if e.IsDir() || filepath.Ext(e.Name()) != entryExt {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			c := evictCand{path: filepath.Join(s.dir, e.Name()), size: info.Size(), age: info.ModTime().UnixNano()}
			// The filename is the hex content key; recover it to join against
			// the hit tally. An undecodable name just counts as never hit.
			if raw, err := hex.DecodeString(strings.TrimSuffix(e.Name(), entryExt)); err == nil && len(raw) == keyLen {
				c.key = string(raw)
				c.hits = s.hitCounts[c.key]
			}
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hits != cands[j].hits {
			return cands[i].hits < cands[j].hits
		}
		return cands[i].age < cands[j].age
	})
	return cands
}
