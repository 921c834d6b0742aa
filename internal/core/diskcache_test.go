package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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

// forgeEntry builds an envelope around payload that claims fingerprint fp
// and key.
func forgeEntry(t testing.TB, fp string, key RunKey, payload []byte) []byte {
	t.Helper()
	b, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	h := append([]byte(entryMagic+fp), binary.AppendUvarint(nil, uint64(len(b)))...)
	return append(append(h, b...), payload...)
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
	path := newDiskKey(x.Key()).path(dir, runSuffix)
	if err := os.WriteFile(path, []byte("TLRC truncated garba"), 0o644); err != nil {
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
	k := newDiskKey(x.Key())

	warm := NewRunCache()
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunCached(warm); err != nil {
		t.Fatal(err)
	}
	path := k.path(dir, runSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forged := forgeEntry(t, "0123456789abcdef0123456789abcdef", x.Key(), data[len(k.header):])
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
	if !bytes.HasPrefix(data, k.header) {
		t.Errorf("entry not overwritten with current fingerprint")
	}
}

// TestDiskCacheKeyCollision stores a different key's entry under this
// key's filename; the header comparison must reject it.
func TestDiskCacheKeyCollision(t *testing.T) {
	dir := t.TempDir()
	x := diskTestExperiment(t)
	key := x.Key()
	other := key
	other.Seed = key.Seed + 1
	k := newDiskKey(key)
	runCodec.store(dir, k, par.Result{Elapsed: 42})
	// Forge: same file now claims to hold `other`.
	data, err := os.ReadFile(k.path(dir, runSuffix))
	if err != nil {
		t.Fatal(err)
	}
	forged := forgeEntry(t, Fingerprint(), other, data[len(k.header):])
	if err := os.WriteFile(k.path(dir, runSuffix), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, stale := runCodec.load(dir, k); ok || !stale {
		t.Errorf("colliding entry: ok=%v stale=%v; want rejected as stale", ok, stale)
	}
}

// TestDiskAddressPinned: the content address is sha256 of the key's
// canonical JSON truncated to 128 bits, the same as under the JSON entry
// format, so a changed key encoding or hash shows up here first.
func TestDiskAddressPinned(t *testing.T) {
	const want = "643c75105443441f134c448a4ec98476"
	k := newDiskKey(diskTestExperiment(t).Key())
	if k.addr != want {
		t.Errorf("address = %s, want %s", k.addr, want)
	}
	if got := filepath.Base(k.path("d", runSuffix)); got != want+".run" {
		t.Errorf("run entry file = %s", got)
	}
}

// TestFingerprintConcurrent: the first concurrent callers all compute or
// wait for one fingerprint (run alone under -race, this catches an
// unsynchronized memo).
func TestFingerprintConcurrent(t *testing.T) {
	const n = 4
	got := make([]string, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = Fingerprint()
		}()
	}
	start.Done()
	done.Wait()
	for i, fp := range got {
		if len(fp) != 32 || fp != got[0] {
			t.Fatalf("caller %d got fingerprint %q, caller 0 %q", i, fp, got[0])
		}
	}
}

// fillDistinct sets every integer in v, recursively through structs and
// slices (two elements each), to the next value of *next, alternating
// sign where the type allows. It fails on any other kind, so a field the
// run codec has never seen cannot slip past it.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		x := *next
		if x%2 == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Struct:
		for i := range v.NumField() {
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range v.Len() {
			fillDistinct(t, v.Index(i), next)
		}
	default:
		t.Fatalf("par.Result holds a %s (%s); teach the run payload codec and this test about it", v.Kind(), v.Type())
	}
}

// TestResultCodecCarriesEveryField round-trips a par.Result whose every
// field, nested ones included, holds a distinct non-zero value. A field
// added to Result fails here until the payload codec carries it.
func TestResultCodecCarriesEveryField(t *testing.T) {
	var want par.Result
	var next int64
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &next)
	got, err := decodeResult(appendResult(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if _, err := decodeResult(appendResult(nil, want)[1:]); err == nil {
		t.Error("a payload missing its first byte decoded")
	}
	if _, err := decodeResult(append(appendResult(nil, want), 0)); err == nil {
		t.Error("a payload with a trailing byte decoded")
	}
	if got, err := decodeResult(appendResult(nil, par.Result{})); err != nil || !reflect.DeepEqual(got, par.Result{}) {
		t.Errorf("zero result round trip = %+v, %v", got, err)
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

// fixtureKey is the key entryFixture stores under.
func fixtureKey() RunKey {
	return RunKey{App: "TSP", Scale: apps.Tiny, Topo: "4x8", Params: chaosParams(), Seed: DefaultSeed}
}

// entryFixture stores one entry with per-cluster traffic under a fresh
// directory and returns the directory, its key, result and on-disk bytes.
func entryFixture(t testing.TB) (string, diskKey, par.Result, []byte) {
	dir := t.TempDir()
	k := newDiskKey(fixtureKey())
	res := par.Result{Elapsed: 123 * sim.Millisecond, Events: 99,
		ClusterWANOut: []network.LinkStats{{Messages: 1, Bytes: 2, BusyTime: 3}, {Messages: 4}}}
	runCodec.store(dir, k, res)
	data, err := os.ReadFile(k.path(dir, runSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return dir, k, res, data
}

// TestDiskEntryRoundTrip: stored entries load back intact, and the cache
// hands every caller a private copy of a disk replay.
func TestDiskEntryRoundTrip(t *testing.T) {
	dir, k, want, _ := entryFixture(t)
	if got, ok, stale := runCodec.load(dir, k); !ok || stale || !reflect.DeepEqual(got, want) {
		t.Fatalf("load = %+v ok=%v stale=%v; want %+v", got, ok, stale, want)
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
	replay.ClusterWANOut[0].Messages++ // must not reach the memoized entry
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
	dir, k, _, data := entryFixture(t)
	for off := 0; off < len(data); off++ {
		if err := os.WriteFile(k.path(dir, runSuffix), data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, stale := runCodec.load(dir, k); ok || !stale {
			t.Fatalf("offset %d of %d: ok=%v stale=%v; want a stale miss", off, len(data), ok, stale)
		}
	}
}

// TestDiskEntryCorruptionFailOpen flips one bit pattern at every byte of
// an entry. A flip in the header (magic, fingerprint or key) makes the
// entry stale, so a wrong result is never served for it. The payload
// carries no checksum: a flip there that still decodes is served
// (DESIGN.md §5f).
func TestDiskEntryCorruptionFailOpen(t *testing.T) {
	dir, k, _, data := entryFixture(t)
	for i := range data {
		mutated := bytes.Clone(data)
		mutated[i] ^= 0x40
		if err := os.WriteFile(k.path(dir, runSuffix), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok, stale := runCodec.load(dir, k)
		if ok == stale {
			t.Fatalf("byte %d: ok=%v stale=%v; want exactly one", i, ok, stale)
		}
		if ok && i < len(k.header) {
			t.Fatalf("byte %d (%q) is in the header, yet the entry was served", i, data[i])
		}
	}
}

// TestDiskEntryForeignFingerprint: a well-formed entry for the right key
// but written under another build's fingerprint is stale, never served.
func TestDiskEntryForeignFingerprint(t *testing.T) {
	dir, k, _, data := entryFixture(t)
	forged := forgeEntry(t, "feedfacefeedfacefeedfacefeedface", fixtureKey(), data[len(k.header):])
	if err := os.WriteFile(k.path(dir, runSuffix), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok, stale := runCodec.load(dir, k); ok || !stale {
		t.Fatalf("load = %+v ok=%v stale=%v; want a stale miss", got, ok, stale)
	}
}

// TestDiskEntryLargerThanFirstRead: a multi-MB entry, hundreds of times
// the reader's first buffer, loads back intact, and so do a small run
// entry and a recorded graph read after it.
func TestDiskEntryLargerThanFirstRead(t *testing.T) {
	dir, small, smallRes, _ := entryFixture(t)
	const clusters = 1 << 18
	big := par.Result{Elapsed: sim.Second, Events: 7, ClusterWANOut: make([]network.LinkStats, clusters)}
	for i := range clusters {
		big.ClusterWANOut[i] = network.LinkStats{Messages: int64(i), Bytes: int64(clusters-i) * 1000, BusyTime: sim.Time(i) * sim.Microsecond}
	}
	other := fixtureKey()
	other.Seed++
	k := newDiskKey(other)
	runCodec.store(dir, k, big)
	if fi, err := os.Stat(k.path(dir, runSuffix)); err != nil || fi.Size() < 2<<20 {
		t.Fatalf("entry of %d clusters: %v, %v; want a multi-MB file", clusters, fi, err)
	}
	for range 2 {
		if got, ok, stale := runCodec.load(dir, k); !ok || stale || !reflect.DeepEqual(got, big) {
			t.Fatalf("multi-MB entry: ok=%v stale=%v, equal=%v", ok, stale, reflect.DeepEqual(got, big))
		}
		if got, ok, stale := runCodec.load(dir, small); !ok || stale || !reflect.DeepEqual(got, smallRes) {
			t.Fatalf("small entry after a large one = %+v ok=%v stale=%v", got, ok, stale)
		}
	}

	gdir, key, data := graphFixture(t)
	g, ok, stale := graphCodec.load(gdir, newDiskKey(key))
	if !ok || stale {
		t.Fatalf("%d-byte graph entry: ok=%v stale=%v", len(data), ok, stale)
	}
	if got, want := encodeGraph(t, g), data[len(newDiskKey(key).header):]; !bytes.Equal(got, want) {
		t.Fatalf("%d-byte graph entry loaded as another graph", len(data))
	}
}

// TestDiskEntryReadEdges: a missing file is a plain miss, a zero-length
// file is stale, and a directory where an entry belongs is a plain miss
// that a lookup simulates past.
func TestDiskEntryReadEdges(t *testing.T) {
	dir, k, _, _ := entryFixture(t)
	other := fixtureKey()
	other.Seed++
	if _, ok, stale := runCodec.load(dir, newDiskKey(other)); ok || stale {
		t.Errorf("missing entry: ok=%v stale=%v; want a plain miss", ok, stale)
	}
	if err := os.WriteFile(k.path(dir, runSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, stale := runCodec.load(dir, k); ok || !stale {
		t.Errorf("zero-length entry: ok=%v stale=%v; want stale", ok, stale)
	}
	for _, suffix := range []string{runSuffix, graphSuffix} {
		path := k.path(dir, suffix)
		os.Remove(path)
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, stale := runCodec.load(dir, k); ok || stale {
		t.Errorf("directory at the run entry: ok=%v stale=%v; want a plain miss", ok, stale)
	}
	if g, ok, stale := graphCodec.load(dir, k); ok || stale || g != nil {
		t.Errorf("directory at the graph entry: %v ok=%v stale=%v; want a plain miss", g, ok, stale)
	}

	x := diskTestExperiment(t)
	cdir := t.TempDir()
	if err := os.Mkdir(newDiskKey(x.Key()).path(cdir, runSuffix), 0o755); err != nil {
		t.Fatal(err)
	}
	c := NewRunCache()
	if err := c.SetDir(cdir); err != nil {
		t.Fatal(err)
	}
	want, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := x.RunCached(c)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("lookup past a directory = %+v, %v; want %+v", got, err, want)
	}
	if s := c.CacheStats(); s.Misses != 1 || s.DiskHits != 0 || s.Stale != 0 {
		t.Errorf("lookup past a directory: stats %+v, want 1 miss, no disk hit, nothing stale", s)
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
// reader must never panic, must serve only a body that opens with the
// current fingerprint and this key and whose payload decodes, and must
// never serve a strict prefix of a valid entry.
func FuzzLoadDisk(f *testing.F) {
	dir, k, _, valid := entryFixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("not a cache entry at all\n"))
	f.Add(bytes.Repeat([]byte{0}, 64))
	mutated := bytes.Clone(valid)
	mutated[len(mutated)/2] ^= 1
	f.Add(mutated)
	// Well-formed envelopes that must stay unserved: a foreign build's
	// fingerprint, and another key under this key's address.
	payload := valid[len(k.header):]
	other := fixtureKey()
	other.Seed++
	f.Add(forgeEntry(f, "0123456789abcdef0123456789abcdef", fixtureKey(), payload))
	f.Add(forgeEntry(f, Fingerprint(), other, payload))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(k.path(dir, runSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, stale := runCodec.load(dir, k) // must not panic on any input
		if !ok {
			if !stale {
				t.Fatal("a present entry was neither served nor stale")
			}
			return
		}
		if len(data) < len(valid) && bytes.HasPrefix(valid, data) {
			t.Fatalf("served a %d-byte prefix of a valid entry", len(data))
		}
		if !bytes.HasPrefix(data, k.header) {
			t.Fatalf("served an entry without this build's header: %q", data)
		}
		want, err := decodeResult(data[len(k.header):])
		if err != nil {
			t.Fatalf("served an entry whose payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("served %+v, the payload holds %+v", got, want)
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
	k := newDiskKey(key)
	graphCodec.store(dir, k, g)
	data, err := os.ReadFile(k.path(dir, graphSuffix))
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
// entry opens with the current fingerprint and this key and its payload
// decodes (and then the graph the payload holds), must never serve a
// strict prefix of a valid entry, and must report every other present file
// as stale.
func FuzzLoadGraphDisk(f *testing.F) {
	dir, key, valid := graphFixture(f)
	k := newDiskKey(key)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("not a graph entry at all\n"))
	f.Add(bytes.Repeat([]byte{0}, 64))
	mutated := bytes.Clone(valid)
	mutated[len(mutated)/2] ^= 1
	f.Add(mutated)
	// Well-formed envelopes that must stay unserved: a foreign build's
	// fingerprint, another key under this key's address, and a payload cut
	// short.
	payload := valid[len(k.header):]
	other := key
	other.Seed++
	f.Add(forgeEntry(f, "0123456789abcdef0123456789abcdef", key, payload))
	f.Add(forgeEntry(f, Fingerprint(), other, payload))
	f.Add(forgeEntry(f, Fingerprint(), key, payload[:len(payload)/2]))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(k.path(dir, graphSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, stale := graphCodec.load(dir, k) // must not panic on any input
		if !ok {
			if !stale {
				t.Fatal("a present entry was neither served nor stale")
			}
			return
		}
		if len(data) < len(valid) && bytes.HasPrefix(valid, data) {
			t.Fatalf("served a %d-byte prefix of a valid entry", len(data))
		}
		if !bytes.HasPrefix(data, k.header) {
			t.Fatalf("served an entry without this build's header")
		}
		want, err := analytic.DecodeBinary(bytes.NewReader(data[len(k.header):]))
		if err != nil {
			t.Fatalf("served a graph whose payload does not decode: %v", err)
		}
		if !bytes.Equal(encodeGraph(t, got), encodeGraph(t, want)) {
			t.Fatal("served a graph other than the one the payload holds")
		}
	})
}
