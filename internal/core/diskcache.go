package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"twolayer/internal/par"
)

// The persistent layer of RunCache: a content-addressed directory of
// completed simulation results, so regenerating figures across process
// invocations (or after editing only rendering code) replays finished runs
// from disk instead of re-simulating them.
//
// Every entry embeds a code fingerprint covering the Go version and the
// committed golden-determinism table. Simulation outputs may only change
// through an intentional golden update, so hashing the table makes every
// behavioural change — and nothing else — invalidate the cache. Entries
// with a different fingerprint, an unparsable body, or a colliding key are
// counted as stale, ignored, and overwritten by the fresh result. All disk
// failures fail open: the cache degrades to simulating, never to an error.

// diskFormatVersion bumps the fingerprint when the entry layout changes.
const diskFormatVersion = 1

// fingerprint is computed once; the inputs cannot change within a process.
var fingerprintMemo string

// Fingerprint identifies the simulation behaviour of this build for the
// persistent cache: the entry format, the Go toolchain, and a hash of the
// golden-determinism table.
func Fingerprint() string {
	if fingerprintMemo != "" {
		return fingerprintMemo
	}
	h := sha256.New()
	fmt.Fprintf(h, "twolayer-runcache-v%d\n%s\n", diskFormatVersion, runtime.Version())
	b, err := json.Marshal(GoldenRuns)
	if err != nil {
		panic("core: golden table not serializable: " + err.Error())
	}
	h.Write(b)
	fingerprintMemo = hex.EncodeToString(h.Sum(nil)[:16])
	return fingerprintMemo
}

// diskEntry is the JSON body of one cached result. The full key is stored
// and compared on load, so a filename hash collision degrades to a miss.
type diskEntry struct {
	Fingerprint string
	Key         RunKey
	Result      par.Result
}

// keyHash is the content address of a RunKey: sha256 of its canonical JSON
// encoding, truncated to 128 bits. The disk cache uses it as a filename;
// the full key is stored alongside and compared on load, so a collision
// degrades to a miss, never to a wrong result.
func keyHash(key RunKey) string {
	b, err := json.Marshal(key)
	if err != nil {
		panic("core: run key not serializable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// entryPath derives the flat content-addressed filename for a key.
func entryPath(dir string, key RunKey) string {
	return filepath.Join(dir, keyHash(key)+".json")
}

// loadDisk looks key up in dir. ok reports a usable hit; stale reports
// that a file was present but unusable (corrupt, foreign fingerprint, or
// key collision) and should be overwritten.
func loadDisk(dir string, key RunKey) (res par.Result, ok, stale bool) {
	data, err := os.ReadFile(entryPath(dir, key))
	if err != nil {
		return par.Result{}, false, false // absent (or unreadable): plain miss
	}
	var e diskEntry
	if json.Unmarshal(data, &e) != nil || e.Fingerprint != Fingerprint() || e.Key != key {
		return par.Result{}, false, true
	}
	return e.Result, true, false
}

// storeDisk writes the result for key atomically (temp file + rename), so
// a crashed or concurrent writer can never leave a half-written entry
// behind — readers see the old body or the new one, and corruption from
// torn writes is impossible. Errors are deliberately dropped.
func storeDisk(dir string, key RunKey, res par.Result) {
	e := diskEntry{Fingerprint: Fingerprint(), Key: key, Result: res}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	writeAtomic(dir, "entry-*.tmp", entryPath(dir, key), data)
}

// writeAtomic writes data to path through a temp file in dir named after
// pattern and a rename. Errors are dropped, with the temp file removed.
func writeAtomic(dir, pattern, path string, data []byte) {
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr != nil || cerr != nil || os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
	}
}
