package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twolayer/internal/analytic"
	"twolayer/internal/apps"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/sim"
	"twolayer/internal/topology"
)

func diskTestExperiment(t *testing.T) Experiment {
	t.Helper()
	app, err := AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	return Experiment{
		App: app, Scale: apps.Tiny, Optimized: false,
		Topo:   topology.DAS(),
		Params: network.DefaultParams().WithWAN(3300*sim.Microsecond, 0.95e6),
	}
}

// TestDiskCachePersistsAcrossCaches is the headline property: a fresh
// cache instance (standing in for a new process) replays a previous
// instance's run from disk, bit-identically and without simulating.
func TestDiskCachePersistsAcrossCaches(t *testing.T) {
	dir := t.TempDir()
	x := diskTestExperiment(t)

	warm := NewRunCache()
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	first, err := x.RunCached(warm)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.CacheStats(); s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("cold run stats = %+v; want 1 miss, 0 disk hits", s)
	}

	cold := NewRunCache()
	if err := cold.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	second, err := x.RunCached(cold)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.CacheStats(); s.DiskHits != 1 || s.Misses != 0 || s.Stale != 0 {
		t.Fatalf("warm run stats = %+v; want 1 disk hit, 0 misses, 0 stale", s)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("disk replay differs from simulation:\n got %+v\nwant %+v", second, first)
	}
}

// TestDiskCacheCorruptEntryRecovers truncates the entry on disk and checks
// the cache counts it stale, re-simulates, and heals the file.
func TestDiskCacheCorruptEntryRecovers(t *testing.T) {
	dir := t.TempDir()
	x := diskTestExperiment(t)

	warm := NewRunCache()
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want, err := x.RunCached(warm)
	if err != nil {
		t.Fatal(err)
	}
	path := entryPath(dir, x.Key())
	if err := os.WriteFile(path, []byte("{ truncated garba"), 0o644); err != nil {
		t.Fatal(err)
	}

	hurt := NewRunCache()
	if err := hurt.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := x.RunCached(hurt)
	if err != nil {
		t.Fatal(err)
	}
	if s := hurt.CacheStats(); s.Stale != 1 || s.Misses != 1 {
		t.Fatalf("corrupt-entry stats = %+v; want 1 stale, 1 miss", s)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recomputed result differs from original")
	}

	healed := NewRunCache()
	if err := healed.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunCached(healed); err != nil {
		t.Fatal(err)
	}
	if s := healed.CacheStats(); s.DiskHits != 1 || s.Stale != 0 {
		t.Fatalf("post-heal stats = %+v; want 1 disk hit, 0 stale", s)
	}
}

// TestDiskCacheFingerprintInvalidates rewrites the stored entry under a
// foreign fingerprint — the shape of an entry written by a build with a
// different golden table — and checks it is rejected and overwritten.
func TestDiskCacheFingerprintInvalidates(t *testing.T) {
	dir := t.TempDir()
	x := diskTestExperiment(t)

	warm := NewRunCache()
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunCached(warm); err != nil {
		t.Fatal(err)
	}
	path := entryPath(dir, x.Key())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Fingerprint = "0123456789abcdef0123456789abcdef"
	forged, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}

	next := NewRunCache()
	if err := next.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunCached(next); err != nil {
		t.Fatal(err)
	}
	if s := next.CacheStats(); s.Stale != 1 || s.Misses != 1 || s.DiskHits != 0 {
		t.Fatalf("foreign-fingerprint stats = %+v; want 1 stale, 1 miss, 0 disk hits", s)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Fingerprint != Fingerprint() {
		t.Errorf("entry not overwritten with current fingerprint")
	}
}

// TestDiskCacheKeyCollision stores a different key's entry under this
// key's filename; the stored-key comparison must reject it.
func TestDiskCacheKeyCollision(t *testing.T) {
	dir := t.TempDir()
	x := diskTestExperiment(t)
	key := x.Key()
	other := key
	other.Seed = key.Seed + 1
	storeDisk(dir, key, par.Result{Elapsed: 42})
	// Forge: same file now claims to hold `other`.
	data, err := os.ReadFile(entryPath(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Key = other
	forged, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(dir, key), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, stale := loadDisk(dir, key); ok || !stale {
		t.Errorf("colliding entry: ok=%v stale=%v; want rejected as stale", ok, stale)
	}
}

// TestDiskCacheFailOpen points the cache at an unusable directory path and
// checks lookups degrade to plain simulation instead of erroring.
func TestDiskCacheFailOpen(t *testing.T) {
	x := diskTestExperiment(t)
	c := NewRunCache()
	// A file (not a directory) as the cache root: reads and writes fail.
	f := t.TempDir() + "/flat"
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDir(f); err == nil {
		// Some platforms let MkdirAll succeed oddly; either way the run
		// must still work.
		t.Log("SetDir on a file unexpectedly succeeded; continuing")
	}
	c2 := NewRunCache()
	c2.mu.Lock()
	c2.dir = f // force an unusable root past SetDir's validation
	c2.mu.Unlock()
	res, err := x.RunCached(c2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed == 0 {
		t.Error("fail-open run returned a zero result")
	}
}

// entryFixture stores one entry with per-proc slices under a fresh
// directory and returns the directory, its key, result and on-disk bytes.
func entryFixture(t testing.TB) (string, RunKey, par.Result, []byte) {
	dir := t.TempDir()
	key := RunKey{App: "TSP", Scale: apps.Tiny, Topo: "4x8", Params: chaosParams(), Seed: DefaultSeed}
	res := par.Result{Elapsed: 123 * sim.Millisecond, Events: 99,
		PerProcFinish: []sim.Time{1, 2}, PerProcCompute: []sim.Time{3, 4}}
	storeDisk(dir, key, res)
	data, err := os.ReadFile(entryPath(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	return dir, key, res, data
}

// TestDiskEntryRoundTrip: stored entries load back intact, and the cache
// hands every caller a private copy of a disk replay.
func TestDiskEntryRoundTrip(t *testing.T) {
	dir, key, want, _ := entryFixture(t)
	if got, ok, stale := loadDisk(dir, key); !ok || stale || !reflect.DeepEqual(got, want) {
		t.Fatalf("loadDisk = %+v ok=%v stale=%v; want %+v", got, ok, stale, want)
	}

	x := diskTestExperiment(t)
	c := NewRunCache()
	if err := c.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	first, err := x.RunCached(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Reset() // the next lookup replays from disk
	replay, err := x.RunCached(c)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.CacheStats(); s.DiskHits != 1 || !reflect.DeepEqual(replay, first) {
		t.Fatalf("disk replay %+v (stats %+v), want %+v", replay, s, first)
	}
	replay.PerProcFinish[0]++ // must not reach the memoized entry
	again, err := x.RunCached(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("RunCached returned a slice shared with the cache")
	}
}

// TestDiskEntryTruncationFailOpen: an entry cut at any byte offset — what
// a torn write would leave, had the rename not ruled it out — is counted
// stale and never served.
func TestDiskEntryTruncationFailOpen(t *testing.T) {
	dir, key, _, data := entryFixture(t)
	for off := 0; off < len(data); off++ {
		if err := os.WriteFile(entryPath(dir, key), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, stale := loadDisk(dir, key); ok || !stale {
			t.Fatalf("offset %d of %d: ok=%v stale=%v; want a stale miss", off, len(data), ok, stale)
		}
	}
}

// TestDiskEntryCorruptionFailOpen flips one bit pattern at every byte of
// an entry. A flip in the fingerprint or the key either makes the entry
// stale or leaves it naming the same key (a renamed zero-valued field),
// so a wrong result is never served for it. The result body carries no
// checksum: a flip there that still parses is served (DESIGN.md §5f).
func TestDiskEntryCorruptionFailOpen(t *testing.T) {
	dir, key, want, data := entryFixture(t)
	body := bytes.Index(data, []byte(`"Result":`))
	if body < 0 {
		t.Fatalf("entry has no result field: %s", data)
	}
	for i := range data {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x40
		if err := os.WriteFile(entryPath(dir, key), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, stale := loadDisk(dir, key)
		if ok == stale {
			t.Fatalf("byte %d: ok=%v stale=%v; want exactly one", i, ok, stale)
		}
		if ok && i < body && !reflect.DeepEqual(got, want) {
			t.Fatalf("byte %d (%q) in the fingerprint or key: served %+v", i, data[i], got)
		}
	}
}

// TestDiskEntryForeignFingerprint: a well-formed entry for the right key
// but written under another build's fingerprint is stale, never served.
func TestDiskEntryForeignFingerprint(t *testing.T) {
	dir, key, _, data := entryFixture(t)
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e.Fingerprint = "feedfacefeedfacefeedfacefeedface"
	forged, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(dir, key), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok, stale := loadDisk(dir, key); ok || !stale {
		t.Fatalf("loadDisk = %+v ok=%v stale=%v; want a stale miss", got, ok, stale)
	}
}

// TestResumeByteIdentical is the resume-after-a-crash contract, carried by
// the run cache: a chaos sweep that lost half its finished cells (a crash
// partway, from the next run's point of view) reruns on a fresh cache to a
// byte-identical CSV, replaying exactly the kept entries from disk; after
// that the directory is complete and a third run simulates nothing.
func TestResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	study := func() (string, CacheStats) {
		t.Helper()
		c := NewRunCache()
		if err := c.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		points, err := ChaosStudy(ChaosConfig{
			Scale:   apps.Tiny,
			Params:  chaosParams(),
			Drops:   []float64{0, 0.04},
			Outages: []sim.Time{0},
			Cache:   c,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteChaosCSV(&b, points)
		return b.String(), c.CacheStats()
	}

	full, _ := study()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Fatalf("cache too small to halve meaningfully: %d entries", len(entries))
	}
	kept := 0
	for i, e := range entries {
		if i%2 == 1 {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
			continue
		}
		kept++
	}

	resumed, s := study()
	if resumed != full {
		t.Errorf("resumed CSV differs from uninterrupted run:\n--- full ---\n%s--- resumed ---\n%s", full, resumed)
	}
	if s.DiskHits != uint64(kept) || s.Misses != uint64(len(entries)-kept) || s.Stale != 0 {
		t.Errorf("resumed run: %+v; want %d disk hits, %d simulated, 0 stale", s, kept, len(entries)-kept)
	}
	if _, s := study(); s.Misses != 0 || s.DiskHits != uint64(len(entries)) {
		t.Errorf("third run: %+v; want all %d cells from disk, 0 simulated", s, len(entries))
	}
}

// FuzzLoadDisk feeds arbitrary bytes to the entry path of a known key: the
// reader must never panic, must serve only a body whose stored fingerprint
// and key match, and must never serve a strict prefix of a valid entry.
func FuzzLoadDisk(f *testing.F) {
	dir, key, _, valid := entryFixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("not a cache entry at all\n"))
	f.Add(bytes.Repeat([]byte{0}, 64))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 1
	f.Add(mutated)
	// Well-formed bodies that must stay unserved: a foreign build's
	// fingerprint, and another key under this key's address.
	var e diskEntry
	if err := json.Unmarshal(valid, &e); err != nil {
		f.Fatal(err)
	}
	for _, forge := range []func(*diskEntry){
		func(e *diskEntry) { e.Fingerprint = "0123456789abcdef0123456789abcdef" },
		func(e *diskEntry) { e.Key.Seed++ },
	} {
		forged := e
		forge(&forged)
		b, err := json.Marshal(forged)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(entryPath(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, stale := loadDisk(dir, key) // must not panic on any input
		if !ok {
			if !stale {
				t.Fatal("a present entry was neither served nor stale")
			}
			return
		}
		if len(data) < len(valid) && bytes.HasPrefix(valid, data) {
			t.Fatalf("served a %d-byte prefix of a valid entry", len(data))
		}
		var e diskEntry
		if err := json.Unmarshal(data, &e); err != nil || e.Fingerprint != Fingerprint() || e.Key != key {
			t.Fatalf("served an entry with fingerprint %q, key %+v (err %v)", e.Fingerprint, e.Key, err)
		}
		if !reflect.DeepEqual(got, e.Result) {
			t.Fatalf("served %+v, the body holds %+v", got, e.Result)
		}
	})
}

// graphFixture records a small graph (TSP, Tiny, at the reference point)
// into a fresh directory and returns the directory, the key and the
// entry's bytes.
func graphFixture(t testing.TB) (string, RunKey, []byte) {
	app, err := AppByName("TSP")
	if err != nil {
		t.Fatal(err)
	}
	x := Experiment{App: app, Scale: apps.Tiny, Topo: topology.DAS(), Params: ReferenceParams()}
	key := x.Key()
	rec := analytic.NewRecorder(x.Topo, x.Params)
	x.Trace = rec
	res, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	g, err := rec.Finish(res.Elapsed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	storeGraphDisk(dir, key, g)
	data, err := os.ReadFile(graphPath(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	return dir, key, data
}

// encodeGraph is g's binary encoding.
func encodeGraph(t *testing.T, g *analytic.Graph) []byte {
	var buf bytes.Buffer
	if err := g.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadGraphDisk feeds the graph cache's entry reader arbitrary bytes at
// an entry's path. It must never panic, must serve a graph only when the
// entry's fingerprint and key match and its payload decodes (and then the
// graph the payload holds), must never serve a strict prefix of a valid
// entry, and must report every other present file as stale.
func FuzzLoadGraphDisk(f *testing.F) {
	dir, key, valid := graphFixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("not a graph entry at all\n"))
	f.Add(bytes.Repeat([]byte{0}, 64))
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 1
	f.Add(mutated)
	// Well-formed envelopes that must stay unserved: a foreign build's
	// fingerprint, another key under this key's address, and a payload cut
	// short.
	var e diskGraphEntry
	if err := json.Unmarshal(valid, &e); err != nil {
		f.Fatal(err)
	}
	for _, forge := range []func(*diskGraphEntry){
		func(e *diskGraphEntry) { e.Fingerprint = "0123456789abcdef0123456789abcdef" },
		func(e *diskGraphEntry) { e.Key.Seed++ },
		func(e *diskGraphEntry) { e.Graph = e.Graph[:len(e.Graph)/2] },
	} {
		forged := e
		forge(&forged)
		b, err := json.Marshal(forged)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(graphPath(dir, key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, stale := loadGraphDisk(dir, key) // must not panic on any input
		if !ok {
			if !stale {
				t.Fatal("a present entry was neither served nor stale")
			}
			return
		}
		if len(data) < len(valid) && bytes.HasPrefix(valid, data) {
			t.Fatalf("served a %d-byte prefix of a valid entry", len(data))
		}
		var e diskGraphEntry
		if err := json.Unmarshal(data, &e); err != nil || e.Fingerprint != Fingerprint() || e.Key != key {
			t.Fatalf("served an entry with fingerprint %q, key %+v (err %v)", e.Fingerprint, e.Key, err)
		}
		want, err := analytic.DecodeBinary(bytes.NewReader(e.Graph))
		if err != nil {
			t.Fatalf("served a graph whose payload does not decode: %v", err)
		}
		if !bytes.Equal(encodeGraph(t, got), encodeGraph(t, want)) {
			t.Fatal("served a graph other than the one the payload holds")
		}
	})
}
