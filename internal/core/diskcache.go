package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"

	"twolayer/internal/faults"
	"twolayer/internal/network"
	"twolayer/internal/par"
	"twolayer/internal/regime"
	"twolayer/internal/sim"
)

// The persistent layer of RunCache: a content-addressed directory of
// completed simulation results, so regenerating figures across process
// invocations (or after editing only rendering code) replays finished runs
// from disk instead of re-simulating them.
//
// Every entry, run result (.run) or recorded graph (.graph), is one binary
// envelope:
//
//	magic | Fingerprint() | uvarint len(key) | key | payload
//
// where key is the canonical JSON of the RunKey, the exact bytes whose
// hash names the file. A load reads the file and compares its prefix with
// the header it expects, byte for byte, without decoding the key; then the
// payload must decode and consume every byte. The fingerprint covers the
// entry format, the Go version and the committed golden-determinism
// table. Simulation outputs may only change through an intentional golden
// update, so hashing the table makes every behavioural change — and
// nothing else — invalidate the cache. A short, corrupt, foreign or
// colliding entry is counted as stale, ignored, and overwritten by the
// fresh result. All disk failures fail open: the cache degrades to
// simulating, never to an error.

// diskFormatVersion bumps the fingerprint when the entry layout changes.
const diskFormatVersion = 3

// entryMagic opens every cache entry.
const entryMagic = "TLRC"

// Entry suffixes: a run result and a recorded graph of one key share the
// content address.
const (
	runSuffix   = ".run"
	graphSuffix = ".graph"
)

// fingerprint is computed once; the inputs cannot change within a process.
var fingerprint = sync.OnceValue(func() string {
	h := sha256.New()
	fmt.Fprintf(h, "twolayer-runcache-v%d\n%s\n", diskFormatVersion, runtime.Version())
	b, err := json.Marshal(GoldenRuns)
	if err != nil {
		panic("core: golden table not serializable: " + err.Error())
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:16])
})

// Fingerprint identifies the simulation behaviour of this build for the
// persistent cache: the entry format, the Go toolchain, and a hash of the
// golden-determinism table. It is safe for concurrent use.
func Fingerprint() string { return fingerprint() }

// diskKey is one lookup's key, encoded once: the canonical JSON's sha256,
// truncated to 128 bits, is the content address, and the same bytes go
// into the header every entry of the key starts with. The full key is in
// the header, so a filename collision degrades to a stale miss, never to
// a wrong result. The header lives in a pooled buffer until release.
type diskKey struct {
	addr   string
	header []byte
	buf    *[]byte
}

// keyBufs recycles the buffers newDiskKey builds headers in.
var keyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func newDiskKey(key RunKey) diskKey {
	bp := keyBufs.Get().(*[]byte)
	fp := Fingerprint()
	// The key's JSON goes at a fixed offset, and the header's prefix
	// (magic, fingerprint, the key's uvarint length) is written right
	// before it, so the key is encoded once and never copied.
	at := len(entryMagic) + len(fp) + binary.MaxVarintLen64
	b := appendKeyJSON((*bp)[:at], key)
	*bp = b
	sum := sha256.Sum256(b[at:])
	var addr [32]byte
	hex.Encode(addr[:], sum[:16])
	var n [binary.MaxVarintLen64]byte
	l := binary.PutUvarint(n[:], uint64(len(b)-at))
	start := at - l - len(fp) - len(entryMagic)
	copy(b[start:], entryMagic)
	copy(b[start+len(entryMagic):], fp)
	copy(b[at-l:], n[:l])
	return diskKey{addr: string(addr[:]), header: b[start:], buf: bp}
}

// release hands the header's buffer back; k must not be used after.
func (k diskKey) release() { keyBufs.Put(k.buf) }

// path names k's entry in dir, a directory SetDir has cleaned.
func (k diskKey) path(dir, suffix string) string {
	return dir + string(filepath.Separator) + k.addr + suffix
}

// appendKeyJSON appends json.Marshal(k)'s bytes to dst without
// reflection: the fields in declaration order, the omitzero ones left out
// when zero. TestRunKeyJSONMatchesMarshal pins it to json.Marshal and
// fails when RunKey or a struct in it gains a field.
func appendKeyJSON(dst []byte, k RunKey) []byte {
	dst = appendJSONString(append(dst, `{"App":`...), k.App)
	dst = strconv.AppendInt(append(dst, `,"Scale":`...), int64(k.Scale), 10)
	dst = strconv.AppendBool(append(dst, `,"Optimized":`...), k.Optimized)
	dst = appendJSONString(append(dst, `,"Topo":`...), k.Topo)
	p := k.Params
	dst = strconv.AppendInt(append(dst, `,"Params":{"IntraLatency":`...), int64(p.IntraLatency), 10)
	dst = appendJSONFloat(append(dst, `,"IntraBandwidth":`...), p.IntraBandwidth)
	dst = strconv.AppendInt(append(dst, `,"WANLatency":`...), int64(p.WANLatency), 10)
	dst = appendJSONFloat(append(dst, `,"WANBandwidth":`...), p.WANBandwidth)
	dst = strconv.AppendInt(append(dst, `,"SendOverhead":`...), int64(p.SendOverhead), 10)
	dst = strconv.AppendInt(append(dst, `,"RecvOverhead":`...), int64(p.RecvOverhead), 10)
	dst = strconv.AppendInt(append(dst, `,"WANPerMessage":`...), int64(p.WANPerMessage), 10)
	dst = appendJSONFloat(append(dst, `,"WANMessageRTTFactor":`...), p.WANMessageRTTFactor)
	dst = strconv.AppendInt(append(dst, `},"Seed":`...), k.Seed, 10)
	if k.WANTopo != "" {
		dst = appendJSONString(append(dst, `,"WANTopo":`...), k.WANTopo)
	}
	if f := k.Faults; f != (faults.Params{}) {
		dst = appendJSONFloat(append(dst, `,"Faults":{"DropRate":`...), f.DropRate)
		dst = appendJSONFloat(append(dst, `,"DupRate":`...), f.DupRate)
		dst = strconv.AppendInt(append(dst, `,"ReorderJitter":`...), int64(f.ReorderJitter), 10)
		dst = strconv.AppendInt(append(dst, `,"OutagePeriod":`...), int64(f.OutagePeriod), 10)
		dst = strconv.AppendInt(append(dst, `,"OutageDuration":`...), int64(f.OutageDuration), 10)
		dst = append(strconv.AppendInt(append(dst, `,"Seed":`...), f.Seed, 10), '}')
	}
	if r := k.Regime; r != (regime.Params{}) {
		dst = appendJSONString(append(dst, `,"Regime":{"Spec":`...), r.Spec)
		dst = append(strconv.AppendInt(append(dst, `,"Seed":`...), r.Seed, 10), '}')
	}
	if k.Adaptive {
		dst = append(dst, `,"Adaptive":true`...)
	}
	return append(dst, '}')
}

// appendJSONString quotes s as json.Marshal does. Printable ASCII other
// than "\<>& needs no escape; anything else goes through json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendJSONFloat formats f as json.Marshal does: 'f', or 'e' below 1e-6
// and from 1e21 with "e-09" shortened to "e-9". A non-finite float cannot
// be a key and panics with json.Marshal's error.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic("core: run key not serializable: json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// codec is how one cache layer's values become entry payloads and back.
// decode must consume every byte and copy whatever it keeps; encode
// appends v's payload to dst, which holds the entry's header, and returns
// nil when v cannot be encoded.
type codec[T any] struct {
	suffix string
	decode func(payload []byte) (T, error)
	encode func(dst []byte, v T) []byte
}

// load reads k's entry in dir. ok reports an entry that opens with k's
// header and whose payload decodes; stale reports a file that is present
// but unusable (short, corrupt, foreign fingerprint, or key collision) and
// should be overwritten. An absent or unreadable file is a plain miss.
func (cd *codec[T]) load(dir string, k diskKey) (v T, ok, stale bool) {
	err := readFile(k.path(dir, cd.suffix), func(data []byte) {
		if !bytes.HasPrefix(data, k.header) {
			return
		}
		d, derr := cd.decode(data[len(k.header):])
		if ok = derr == nil; ok {
			v = d
		}
	})
	return v, ok, err == nil && !ok
}

// readBufs recycles readFile's buffers. A run entry is a few hundred
// bytes, so one buffer per core serves every warm lookup; a buffer grown
// past maxPooledRead for a large graph is dropped instead of kept.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2<<10); return &b }}

const maxPooledRead = 64 << 10

// readFile reads the named file with one open, reads until end of file,
// and a close, through package syscall, and hands its contents to use,
// which must not keep them. No os.File is made, so a read pays for no
// poller registration, finalizer or fstat. The buffer is taken from
// readBufs only once the open succeeds (a cold sweep's lookups all fail
// there), and it doubles whenever a read fills it, so a multi-MB graph
// takes a few more reads than it would sized from a stat.
func readFile(name string, use func(data []byte)) error {
	fd, err := syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return err
	}
	defer syscall.Close(fd)
	bp := readBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		if cap(buf) <= maxPooledRead {
			*bp = buf[:0]
		}
		readBufs.Put(bp)
	}()
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return err
		case n == 0:
			use(buf)
			return nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

// store writes v as k's entry in dir atomically (temp file + rename), so
// a crashed or concurrent writer can never leave a half-written entry
// behind — readers see the old body or the new one. Errors are
// deliberately dropped, with the temp file removed: the cache fails open.
func (cd *codec[T]) store(dir string, k diskKey, v T) {
	data := cd.encode(bytes.Clone(k.header), v)
	if data == nil {
		return
	}
	tmp, err := os.CreateTemp(dir, "entry-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr != nil || cerr != nil || os.Rename(tmp.Name(), k.path(dir, cd.suffix)) != nil {
		os.Remove(tmp.Name())
	}
}

// runCodec stores a run result as the payload below.
var runCodec = codec[par.Result]{suffix: runSuffix, decode: decodeResult, encode: appendResult}

// The run payload is par.Result's fields in declaration order: signed
// quantities as varints, Events as a uvarint, and ClusterWANOut as a
// uvarint count followed by its elements. An empty slice decodes as nil.

// appendResult appends r's payload encoding to dst.
func appendResult(dst []byte, r par.Result) []byte {
	link := func(dst []byte, s network.LinkStats) []byte {
		dst = binary.AppendVarint(dst, s.Messages)
		dst = binary.AppendVarint(dst, s.Bytes)
		return binary.AppendVarint(dst, int64(s.BusyTime))
	}
	dst = binary.AppendVarint(dst, int64(r.Elapsed))
	dst = link(dst, r.WAN)
	dst = binary.AppendUvarint(dst, uint64(len(r.ClusterWANOut)))
	for _, s := range r.ClusterWANOut {
		dst = link(dst, s)
	}
	dst = binary.AppendVarint(dst, r.Intra.Messages)
	dst = binary.AppendVarint(dst, r.Intra.Bytes)
	dst = binary.AppendUvarint(dst, r.Events)
	for _, v := range []int64{
		r.Transport.Timeouts, r.Transport.Retransmits, r.Transport.Acks,
		r.Transport.Duplicates, r.Transport.OutOfOrder,
		r.Faults.Dropped, r.Faults.OutageDropped, r.Faults.Duplicated,
	} {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// payloadReader decodes varints from a byte slice and remembers the first
// failure; after one, every read returns zero.
type payloadReader struct {
	b   []byte
	bad bool
}

func (p *payloadReader) varint() int64 {
	v, n := binary.Varint(p.b)
	if n <= 0 {
		p.bad = true
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.bad = true
		return 0
	}
	p.b = p.b[n:]
	return v
}

// count reads a slice length. Every element takes at least one byte, so a
// count above the bytes left fails the reader instead of sizing anything.
func (p *payloadReader) count() int {
	n := p.uvarint()
	if n > uint64(len(p.b)) {
		p.bad = true
		return 0
	}
	return int(n)
}

func (p *payloadReader) link() network.LinkStats {
	return network.LinkStats{Messages: p.varint(), Bytes: p.varint(), BusyTime: sim.Time(p.varint())}
}

var errBadPayload = errors.New("core: malformed cache entry payload")

// decodeResult decodes a run payload, which must consume every byte.
func decodeResult(b []byte) (par.Result, error) {
	p := &payloadReader{b: b}
	var r par.Result
	r.Elapsed = sim.Time(p.varint())
	r.WAN = p.link()
	if n := p.count(); n > 0 {
		r.ClusterWANOut = make([]network.LinkStats, n)
		for i := range r.ClusterWANOut {
			r.ClusterWANOut[i] = p.link()
		}
	}
	r.Intra.Messages = p.varint()
	r.Intra.Bytes = p.varint()
	r.Events = p.uvarint()
	for _, v := range []*int64{
		&r.Transport.Timeouts, &r.Transport.Retransmits, &r.Transport.Acks,
		&r.Transport.Duplicates, &r.Transport.OutOfOrder,
		&r.Faults.Dropped, &r.Faults.OutageDropped, &r.Faults.Duplicated,
	} {
		*v = p.varint()
	}
	if p.bad || len(p.b) != 0 {
		return par.Result{}, errBadPayload
	}
	return r, nil
}
