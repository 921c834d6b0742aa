package analytic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"twolayer/internal/network"
	"twolayer/internal/sim"
)

// Binary graph format: the magic, a version, then the graph fields in
// declaration order — scalars and times as signed varints, float64s as
// fixed 8-byte IEEE bits, slices as a uvarint count followed by elements
// (Ops as raw bytes). The format is self-contained and validated on
// decode, which must consume the input to its end; content addressing
// and fingerprint gating live in the cache layer above. JSON encoding
// needs no code here: the Graph's exported fields marshal directly (with
// []uint8 as base64), and the round-trip property test pins both
// encodings against each other.
const (
	binaryMagic   = "TLAG"
	binaryVersion = 1
)

// EncodeBinary writes the graph in the binary format.
func (g *Graph) EncodeBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	putVarint := func(v int64) {
		n := binary.PutVarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	putFloat := func(f float64) {
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(f))
		bw.Write(scratch[:8])
	}
	putUvarint(binaryVersion)
	putUvarint(uint64(g.Procs))
	putUvarint(uint64(g.Clusters))
	for _, c := range g.ClusterOf {
		putVarint(int64(c))
	}
	putVarint(int64(g.Ref.IntraLatency))
	putFloat(g.Ref.IntraBandwidth)
	putVarint(int64(g.Ref.WANLatency))
	putFloat(g.Ref.WANBandwidth)
	putVarint(int64(g.Ref.SendOverhead))
	putVarint(int64(g.Ref.RecvOverhead))
	putVarint(int64(g.Ref.WANPerMessage))
	putFloat(g.Ref.WANMessageRTTFactor)
	putVarint(int64(g.RefElapsed))
	putUvarint(uint64(len(g.Ops)))
	bw.Write(g.Ops)
	for _, r := range g.Rank {
		putVarint(int64(r))
	}
	for _, a := range g.Arg {
		putVarint(a)
	}
	putUvarint(uint64(len(g.MsgSrc)))
	for _, s := range g.MsgSrc {
		putVarint(int64(s))
	}
	for _, d := range g.MsgDst {
		putVarint(int64(d))
	}
	for _, b := range g.MsgBytes {
		putVarint(b)
	}
	for _, t := range g.MsgTag {
		putVarint(t)
	}
	putUvarint(uint64(len(g.RecvFrom)))
	for _, f := range g.RecvFrom {
		putVarint(int64(f))
	}
	for _, t := range g.RecvTag {
		putVarint(t)
	}
	bw.Write(g.RecvPoll)
	return bw.Flush()
}

// decodeChunk is the most DecodeBinary preallocates for a slice. Every
// count in the format comes from the input, so a slice then grows as its
// elements decode instead of being sized from the count alone: a corrupt
// or hostile count fails at EOF having allocated in proportion to the
// bytes actually read.
const decodeChunk = 4096

// decoder reads the binary format's primitives and keeps the first error;
// after one, every read returns zero and the element loops stop.
type decoder struct {
	br  *bufio.Reader
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		d.fail(err)
	}
	return v
}

func (d *decoder) varint() int64 {
	v, err := binary.ReadVarint(d.br)
	if err != nil {
		d.fail(err)
	}
	return v
}

func (d *decoder) float() float64 {
	var buf [8]byte
	if _, err := io.ReadFull(d.br, buf[:]); err != nil {
		d.fail(err)
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

// count reads a slice length. It is 0 once the decoder has failed, and a
// value above MaxInt32 fails it, so no caller ever sizes anything from a
// count it should not trust.
func (d *decoder) count(what string) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > math.MaxInt32 {
		d.fail(fmt.Errorf("analytic: implausible %s count %d", what, v))
		return 0
	}
	return int(v)
}

// varints decodes n signed varints as T, stopping at the first error.
func varints[T int32 | int64](d *decoder, n int) []T {
	s := make([]T, 0, min(n, decodeChunk))
	for len(s) < n && d.err == nil {
		s = append(s, T(d.varint()))
	}
	return s
}

// raw reads n bytes; the buffer grows only as bytes arrive.
func (d *decoder) raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	s, err := io.ReadAll(io.LimitReader(d.br, int64(n)))
	if err == nil && len(s) < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		d.fail(err)
	}
	return s
}

// DecodeBinary reads a graph in the binary format and validates it; the
// reader must end where the graph does. It allocates in proportion to
// the bytes it reads, whatever counts the input declares.
func DecodeBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("analytic: reading graph magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("analytic: bad graph magic %q", magic)
	}
	d := &decoder{br: br}
	if v := d.uvarint(); v != binaryVersion && d.err == nil {
		return nil, fmt.Errorf("analytic: unsupported graph format version %d", v)
	}
	g := &Graph{}
	g.Procs = d.count("proc")
	g.Clusters = d.count("cluster")
	if d.err != nil {
		return nil, fmt.Errorf("analytic: decoding graph header: %w", d.err)
	}
	if g.Procs <= 0 {
		return nil, fmt.Errorf("analytic: implausible proc count %d", g.Procs)
	}
	g.ClusterOf = varints[int32](d, g.Procs)
	g.Ref = network.Params{
		IntraLatency:        sim.Time(d.varint()),
		IntraBandwidth:      d.float(),
		WANLatency:          sim.Time(d.varint()),
		WANBandwidth:        d.float(),
		SendOverhead:        sim.Time(d.varint()),
		RecvOverhead:        sim.Time(d.varint()),
		WANPerMessage:       sim.Time(d.varint()),
		WANMessageRTTFactor: d.float(),
	}
	g.RefElapsed = sim.Time(d.varint())
	ops := d.count("operation")
	g.Ops = d.raw(ops)
	g.Rank = varints[int32](d, ops)
	g.Arg = varints[int64](d, ops)
	msgs := d.count("message")
	g.MsgSrc = varints[int32](d, msgs)
	g.MsgDst = varints[int32](d, msgs)
	g.MsgBytes = varints[int64](d, msgs)
	g.MsgTag = varints[int64](d, msgs)
	recvs := d.count("receive pattern")
	g.RecvFrom = varints[int32](d, recvs)
	g.RecvTag = varints[int64](d, recvs)
	g.RecvPoll = d.raw(recvs)
	if d.err != nil {
		return nil, fmt.Errorf("analytic: decoding graph: %w", d.err)
	}
	switch _, err := br.ReadByte(); {
	case err == nil:
		return nil, fmt.Errorf("analytic: trailing bytes after the graph")
	case err != io.EOF:
		return nil, fmt.Errorf("analytic: decoding graph: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
