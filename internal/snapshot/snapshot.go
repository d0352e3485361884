// Package snapshot implements the versioned, checksummed binary container
// that checkpoint files are built from. The encoding is deliberately dumb:
// fixed-width little-endian primitives, length-prefixed byte strings, and
// explicit section frames. Dumb is a feature — byte-identical output for
// identical simulator state is the whole point, so there is no varint
// compression, no reflection, and no map iteration anywhere in this
// package.
//
// A snapshot file is laid out as
//
//	magic   8 bytes  "MWSNAP\x00\x01"
//	version u16      container version (this package)
//	body    sections ...
//	crc     u32      CRC-32 (Castagnoli) over magic+version+body
//
// Each section is
//
//	id      u16
//	length  u32      byte length of the payload that follows
//
// so a reader can verify it consumed exactly the bytes the writer framed,
// and a mismatch is reported against the section name rather than as a
// bad value ten fields later.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"mediaworm/internal/sim"
)

// Version is the container version. Bump it when the framing itself or a
// section payload changes shape. v2: NI sections gained policing counters
// and an optional policer state block. v3: RoundRobin and DRR arbiter
// payloads became the shared rotation's turn-holder and remaining turn.
// v4: router sections carry the per-port and per-VC counter blocks and
// drop the Stats fields derived from them and each output port's retired
// request count; NI sections drop the policing-drop count and sink
// sections the message count, which the blocks now hold; the fabric
// section keeps one drop-reconciliation total, not one per router and NI.
// v5: sink sections drop the flit count, which the endpoint port's VC
// blocks already hold as their Transmitted counts. v6: router sections
// drop each output port's list of waiting headers; a waiting header's
// request instant follows its sequence number in its input-VC record. v7:
// a WF²Q+ arbiter payload carries one presence word, not two.
const Version uint16 = 7

// magic identifies a MediaWorm snapshot. The trailing \x00\x01 keeps text
// tools from mistaking the file for ASCII.
var magic = [8]byte{'M', 'W', 'S', 'N', 'A', 'P', 0x00, 0x01}

// castagnoli is the CRC-32C table used for the trailing checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a snapshot that fails structural validation: bad
// magic, checksum mismatch, truncation, or section framing that does not
// add up. Offset is the byte position the problem was detected at.
type CorruptError struct {
	Offset int
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt at byte %d: %s", e.Offset, e.Reason)
}

// VersionError reports a structurally sound snapshot written by an
// incompatible encoder version.
type VersionError struct {
	Got, Want uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: version %d, this build reads version %d", e.Got, e.Want)
}

// InvariantError reports a snapshot that decoded cleanly but describes a
// state violating a simulator invariant (flit conservation, buffer
// capacity, calendar integrity). Restoring such a state would corrupt the
// run, so restore fails fast instead.
type InvariantError struct {
	Invariant string
	Detail    string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("snapshot: invariant %q violated: %s", e.Invariant, e.Detail)
}

// NotSnapshottableError reports a simulator feature that the checkpoint
// format does not cover yet; checkpointing is refused up front rather than
// silently dropping state.
type NotSnapshottableError struct {
	Feature string
}

func (e *NotSnapshottableError) Error() string {
	return fmt.Sprintf("snapshot: %s is not snapshottable", e.Feature)
}

// Writer accumulates a snapshot body in memory and emits the framed,
// checksummed file in one Flush. All writes are infallible until Flush.
type Writer struct {
	buf []byte
	// secStart stacks the offsets of open section length fields.
	secStart []int
	secID    []uint16
}

// NewWriter starts a snapshot with the magic and container version already
// written.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic[:]...)
	w.U16(Version)
	return w
}

// Begin opens a section. Sections may nest; every Begin must be matched by
// an End before Flush.
func (w *Writer) Begin(id uint16) {
	w.U16(id)
	w.secID = append(w.secID, id)
	w.secStart = append(w.secStart, len(w.buf))
	w.U32(0) // length, patched by End
}

// End closes the innermost open section, patching its length field.
func (w *Writer) End() {
	n := len(w.secStart)
	if n == 0 {
		panic("snapshot: End without Begin")
	}
	start := w.secStart[n-1]
	w.secStart = w.secStart[:n-1]
	w.secID = w.secID[:n-1]
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(w.buf)-start-4))
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes the IEEE-754 bit pattern of v, so NaN payloads and signed
// zeros round-trip exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Time writes a sim.Time tick count.
func (w *Writer) Time(t sim.Time) { w.I64(int64(t)) }

// Bytes writes a u32 length prefix followed by the raw bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes s as length-prefixed bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Flush appends the CRC-32C trailer and writes the whole snapshot to out.
// It fails if any section is still open.
func (w *Writer) Flush(out io.Writer) error {
	if len(w.secStart) != 0 {
		return fmt.Errorf("snapshot: Flush with section %d still open", w.secID[len(w.secID)-1])
	}
	sum := crc32.Checksum(w.buf, castagnoli)
	full := binary.LittleEndian.AppendUint32(w.buf, sum)
	_, err := out.Write(full)
	// Keep the writer reusable for a second Flush of the same bytes.
	w.buf = full[:len(full)-4]
	return err
}

// Reader decodes a snapshot produced by Writer. Errors are sticky: after
// the first failure every read returns the zero value, and Err reports the
// original cause, so decode code can read a whole section and check once.
type Reader struct {
	data []byte
	off  int
	err  error
	// secEnd stacks the end offsets of open sections.
	secEnd []int
	secID  []uint16
}

// NewReader slurps the snapshot, verifies magic, checksum, and version,
// and positions the reader at the first section.
func NewReader(r io.Reader) (*Reader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	if len(data) < len(magic)+2+4 {
		return nil, &CorruptError{Offset: len(data), Reason: "truncated: shorter than header+trailer"}
	}
	for i, b := range magic {
		if data[i] != b {
			return nil, &CorruptError{Offset: i, Reason: "bad magic: not a MediaWorm snapshot"}
		}
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, &CorruptError{
			Offset: len(body),
			Reason: fmt.Sprintf("checksum mismatch: computed %08x, stored %08x", got, want),
		}
	}
	if v := binary.LittleEndian.Uint16(data[len(magic):]); v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	return &Reader{data: body, off: len(magic) + 2}, nil
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(reason string) {
	if r.err == nil {
		r.err = &CorruptError{Offset: r.off, Reason: reason}
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	limit := len(r.data)
	if k := len(r.secEnd); k > 0 {
		limit = r.secEnd[k-1]
	}
	if r.off+n > limit {
		r.fail(fmt.Sprintf("truncated: need %d bytes, %d left in frame", n, limit-r.off))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Begin opens the next section and verifies its id.
func (r *Reader) Begin(id uint16) {
	got := r.U16()
	length := r.U32()
	if r.err != nil {
		return
	}
	if got != id {
		r.fail(fmt.Sprintf("section %d expected, found %d", id, got))
		return
	}
	end := r.off + int(length)
	limit := len(r.data)
	if k := len(r.secEnd); k > 0 {
		limit = r.secEnd[k-1]
	}
	if end > limit {
		r.fail(fmt.Sprintf("section %d overruns its frame", id))
		return
	}
	r.secEnd = append(r.secEnd, end)
	r.secID = append(r.secID, id)
}

// End closes the innermost section, verifying the payload was consumed
// exactly.
func (r *Reader) End() {
	if r.err != nil {
		return
	}
	n := len(r.secEnd)
	if n == 0 {
		r.fail("End without Begin")
		return
	}
	end, id := r.secEnd[n-1], r.secID[n-1]
	r.secEnd = r.secEnd[:n-1]
	r.secID = r.secID[:n-1]
	if r.off != end {
		r.fail(fmt.Sprintf("section %d: %d bytes left unread", id, end-r.off))
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 and narrows it to int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads an IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte and rejects anything but 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bool byte not 0 or 1")
		return false
	}
}

// Time reads a sim.Time tick count.
func (r *Reader) Time() sim.Time { return sim.Time(r.I64()) }

// Bytes reads a length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Len counts the elements of a collection read: it rejects negative or
// absurd counts (beyond the bytes remaining) before the caller allocates.
func (r *Reader) Len() int {
	n := r.I64()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > int64(len(r.data)-r.off) {
		r.fail(fmt.Sprintf("implausible collection length %d", n))
		return 0
	}
	return int(n)
}
