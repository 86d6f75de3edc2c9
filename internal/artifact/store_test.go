package artifact

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testKey(seed string) string {
	h := sha256.Sum256([]byte(seed))
	return string(h[:])
}

func mustOpen(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t)
	key := testKey("k1")
	payload := []byte("compiled module bytes")
	s.Put(key, payload)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Writes != 1 || st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesOnDisk != int64(headerLen+len(payload)) {
		t.Fatalf("BytesOnDisk = %d, want %d", st.BytesOnDisk, headerLen+len(payload))
	}
}

func TestGetMissingIsMiss(t *testing.T) {
	s := mustOpen(t)
	if _, ok := s.Get(testKey("absent")); ok {
		t.Fatal("expected miss")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
}

func TestPutIsIdempotent(t *testing.T) {
	s := mustOpen(t)
	key := testKey("k")
	s.Put(key, []byte("payload"))
	s.Put(key, []byte("payload"))
	st := s.Stats()
	if st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats after double Put = %+v", st)
	}
}

func TestReopenSeesExistingEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("persist")
	s1.Put(key, []byte("survives restarts"))

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok || string(got) != "survives restarts" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 1 || st.BytesOnDisk == 0 {
		t.Fatalf("reopen scan stats = %+v", st)
	}
}

// Corruption anywhere in the entry — header or payload — must be a clean
// miss that removes the file, never an error or a wrong payload.
func TestCorruptionIsCleanMiss(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"magic flip", flipAt(0)},
		{"version bump", flipAt(len(formatMagic) - 1)},
		{"key flip", flipAt(len(formatMagic) + 3)},
		{"length flip", flipAt(len(formatMagic) + keyLen + 7)},
		{"checksum flip", flipAt(len(formatMagic) + keyLen + 8 + 5)},
		{"payload flip", flipAt(headerLen + 2)},
		{"truncated header", func(b []byte) []byte { return b[:headerLen/2] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"empty file", func(b []byte) []byte { return nil }},
		{"appended junk", func(b []byte) []byte { return append(b, 0xFF, 0x00, 0xFF) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t)
			key := testKey("victim " + tc.name)
			s.Put(key, []byte("payload bytes under test"))
			p := s.path(key)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry returned payload %q", got)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not removed: %v", err)
			}
			st := s.Stats()
			if st.CorruptDrops != 1 {
				t.Fatalf("CorruptDrops = %d, want 1", st.CorruptDrops)
			}
			// The store self-heals: a rewrite after the drop works.
			s.Put(key, []byte("payload bytes under test"))
			if _, ok := s.Get(key); !ok {
				t.Fatal("rewrite after corrupt drop missed")
			}
		})
	}
}

func flipAt(off int) func([]byte) []byte {
	return func(b []byte) []byte {
		if off < len(b) {
			b[off] ^= 0x40
		}
		return b
	}
}

// A format-version bump (different magic) written by a future process
// reads as a miss here and is dropped, so mixed-version fleets degrade to
// recompiles rather than loading entries they cannot parse.
func TestVersionBumpInvalidates(t *testing.T) {
	s := mustOpen(t)
	key := testKey("versioned")
	s.Put(key, []byte("old world payload"))
	p := s.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, "WCAF9999")
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("future-format entry served")
	}
	if st := s.Stats(); st.CorruptDrops != 1 {
		t.Fatalf("CorruptDrops = %d, want 1", st.CorruptDrops)
	}
}

// An entry stored under one key must not satisfy a different key even if
// the file is copied into place (the header binds the full content key,
// not just the filename).
func TestKeyMismatchRejected(t *testing.T) {
	s := mustOpen(t)
	k1, k2 := testKey("a"), testKey("b")
	s.Put(k1, []byte("payload for a"))
	raw, err := os.ReadFile(s.path(k1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k2), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k2); ok {
		t.Fatalf("cross-key entry served: %q", got)
	}
}

func TestRejectsBadKeysAndPayloads(t *testing.T) {
	s := mustOpen(t)
	s.Put("short", []byte("x"))  // wrong key length
	s.Put(testKey("empty"), nil) // empty payload
	if st := s.Stats(); st.Writes != 0 {
		t.Fatalf("invalid Put wrote: %+v", st)
	}
	if _, ok := s.Get("short"); ok {
		t.Fatal("short key hit")
	}
}

func TestMaxBytesEvictsOldest(t *testing.T) {
	s := mustOpen(t)
	payload := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(headerLen + len(payload))
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("evict-%d", i))
		s.Put(keys[i], payload)
		// mtime granularity on some filesystems is coarse; space the
		// writes so oldest-first ordering is deterministic.
		past := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		os.Chtimes(s.path(keys[i]), past, past)
	}
	s.SetMaxBytes(2 * entrySize)
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("after SetMaxBytes: %+v", st)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := s.Get(keys[3]); !ok {
		t.Fatal("newest entry evicted")
	}
}

// Concurrent readers, writers, corruptors, and evictors on overlapping
// keys: run under -race. Correctness bar: Get never returns a payload
// that differs from what Put stored for that key.
func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t)
	s.SetMaxBytes(64 << 10)
	const keys = 16
	payloadFor := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 200+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				i := (g + it) % keys
				key := testKey(fmt.Sprintf("conc-%d", i))
				switch it % 4 {
				case 0:
					s.Put(key, payloadFor(i))
				case 1, 2:
					if got, ok := s.Get(key); ok && !bytes.Equal(got, payloadFor(i)) {
						t.Errorf("key %d: wrong payload (%d bytes)", i, len(got))
					}
				case 3:
					// Simulate an external truncation racing readers.
					p := s.path(key)
					if raw, err := os.ReadFile(p); err == nil && len(raw) > 4 {
						os.WriteFile(p+".t", raw[:len(raw)/2], 0o644)
						os.Rename(p+".t", p)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// The store must still function after the storm.
	key := testKey("post-storm")
	s.Put(key, []byte("still alive"))
	if _, ok := s.Get(key); !ok {
		t.Fatal("store broken after concurrent access")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not an artifact"), 0o644)
	os.Mkdir(filepath.Join(dir, "sub"), 0o755)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("foreign files counted: %+v", st)
	}
}

// TestMemoryStore exercises OpenMemory: same Get/Put/eviction contract as
// the disk store, no filesystem underneath.
func TestMemoryStore(t *testing.T) {
	s := OpenMemory()
	if !s.InMemory() || s.Dir() != "" {
		t.Fatalf("InMemory = %v, Dir = %q", s.InMemory(), s.Dir())
	}
	key := testKey("mem1")
	payload := []byte("compiled module bytes")
	s.Put(key, payload)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Get(testKey("absent")); ok {
		t.Fatal("expected miss")
	}
	s.Put(key, []byte("different")) // idempotent: first write wins
	got, _ = s.Get(key)
	if !bytes.Equal(got, payload) {
		t.Fatalf("second Put overwrote: %q", got)
	}
	st := s.Stats()
	if st.Writes != 1 || st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.DropUndecodable(key)
	if _, ok := s.Get(key); ok {
		t.Fatal("entry survives DropUndecodable")
	}
	if st := s.Stats(); st.CorruptDrops != 1 || st.Entries != 0 {
		t.Fatalf("stats after drop = %+v", st)
	}
}

// TestMemoryStoreEvictsOldest checks seq-ordered eviction under a byte cap.
func TestMemoryStoreEvictsOldest(t *testing.T) {
	s := OpenMemory()
	payload := bytes.Repeat([]byte("x"), 100)
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("evict-%d", i))
		s.Put(keys[i], payload)
	}
	s.SetMaxBytes(250) // room for two 100-byte entries
	if st := s.Stats(); st.BytesOnDisk > 250 {
		t.Fatalf("BytesOnDisk = %d after cap", st.BytesOnDisk)
	}
	// Oldest inserted go first; the newest survive.
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := s.Get(keys[4]); !ok {
		t.Fatal("newest entry was evicted")
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions", st)
	}
}

// TestMemoryStoreConcurrent hammers the memory store from many goroutines.
func TestMemoryStoreConcurrent(t *testing.T) {
	s := OpenMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := testKey(fmt.Sprintf("c-%d", i%10))
				s.Put(key, []byte(fmt.Sprintf("payload-%d", i%10)))
				s.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 10 {
		t.Fatalf("Entries = %d, want 10", st.Entries)
	}
}

// Eviction is least-frequently-used before oldest: a heavily-hit old entry
// outlives an unhit newer one, on disk and in memory.
func TestMaxBytesEvictsLFUBeforeOldest(t *testing.T) {
	s := mustOpen(t)
	payload := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(headerLen + len(payload))
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("lfu-%d", i))
		s.Put(keys[i], payload)
		past := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		os.Chtimes(s.path(keys[i]), past, past)
	}
	// keys[0] is the oldest but also the only one anybody reloads.
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(keys[0]); !ok {
			t.Fatal("warm-up hit missed")
		}
	}
	if n := s.HitCount(keys[0]); n != 3 {
		t.Fatalf("HitCount = %d, want 3", n)
	}
	s.SetMaxBytes(2 * entrySize)
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("after SetMaxBytes: %+v", st)
	}
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("frequently-hit oldest entry was evicted")
	}
	// Of the never-hit entries the oldest two go; the newest survives.
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("unhit old entry survived over the hit one")
	}
	if _, ok := s.Get(keys[3]); !ok {
		t.Fatal("newest unhit entry evicted before older unhit ones")
	}
}

func TestMemoryStoreEvictsLFUBeforeOldest(t *testing.T) {
	s := OpenMemory()
	payload := bytes.Repeat([]byte("y"), 100)
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("memlfu-%d", i))
		s.Put(keys[i], payload)
	}
	// Oldest entry, only one hit — still beats the unhit ones.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("warm-up hit missed")
	}
	s.SetMaxBytes(150) // room for one 100-byte entry
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("hit entry evicted from the memory store")
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("unhit entry survived over the hit one")
	}
	if st := s.Stats(); st.Entries != 1 || st.Evictions != 2 {
		t.Fatalf("after SetMaxBytes: %+v", st)
	}
}

// A memory-backed store is bounded from the start: it is the default store
// of a serving process, and one tenant compiling distinct functions in a
// loop must not grow the heap under every other tenant. The bound holds
// after every insert, and ranking the entries is amortised: one pass makes
// room for hundreds of inserts.
func TestMemoryStoreBoundedByDefault(t *testing.T) {
	s := OpenMemory()
	const puts = 10000
	payload := bytes.Repeat([]byte("p"), 5<<10)
	kept := testKey("bounded-0")
	for i := 0; i < puts; i++ {
		s.Put(testKey(fmt.Sprintf("bounded-%d", i)), payload)
		if i%100 == 0 {
			// Read by every session: must outlive its never-read neighbours.
			if _, ok := s.Get(kept); !ok {
				t.Fatalf("after %d puts: the entry that keeps being hit was evicted", i+1)
			}
		}
		if st := s.Stats(); st.BytesOnDisk > DefaultMemoryBytes {
			t.Fatalf("after %d puts: %d bytes held, bound %d", i+1, st.BytesOnDisk, DefaultMemoryBytes)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 || st.EvictionPasses > puts/50 {
		t.Fatalf("%d eviction passes for %d puts (%d evictions); want at most %d", st.EvictionPasses, puts, st.Evictions, puts/50)
	}
	if _, ok := s.Get(testKey("bounded-1")); ok {
		t.Fatal("a never-hit entry from the start survived ten thousand inserts")
	}
	if _, ok := s.Get(testKey(fmt.Sprintf("bounded-%d", puts-1))); !ok {
		t.Fatal("the newest entry was evicted")
	}
	// A caller who wants no bound can still say so.
	if prev := s.SetMaxBytes(0); prev != DefaultMemoryBytes {
		t.Fatalf("previous bound = %d", prev)
	}
}
