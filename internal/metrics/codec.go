package metrics

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// CodecVersion identifies the binary layout EncodeAccumulator writes. It
// is part of every on-disk cache key: bump it whenever the Accumulator
// gains, loses or reorders state, and old entries simply miss instead of
// decoding into garbage.
const CodecVersion = 2

// accumulatorMagic opens every encoded accumulator. The trailing byte is
// a format generation separate from CodecVersion so a future incompatible
// container (say, compression) is distinguishable even before the version
// field is reachable.
var accumulatorMagic = [8]byte{'G', 'A', 'I', 'A', 'A', 'C', 'C', 1}

// EncodeAccumulator serializes an accumulator into a self-contained blob:
//
//	magic [8] | codec version u64 | nJobs u64
//	| waitings, lengths (u64 LE each)
//	| carbons, baselines, costs (Float64bits LE each)
//	| queues (1 byte each)
//	| cpuHours [3]f64 | evictions u64 | wastedCPUHours f64
//	| 3 × (len u64 | usage bins u64 LE each)
//	| crc32-IEEE of everything above (u32 LE)
//
// All integers are little-endian; floats are stored as exact bit
// patterns, so a decoded accumulator answers every aggregate query
// bit-identically to the original.
func EncodeAccumulator(a *Accumulator) []byte {
	n := len(a.sched.waitings)
	size := 8 + 8 + 8 + // magic, version, nJobs
		n*8*2 + n*8*3 + n + // duration, float columns, queues
		3*8 + 8 + 8 + // cpuHours, evictions, wastedCPUHours
		3*8 + 8*(len(a.usage[0])+len(a.usage[1])+len(a.usage[2])) +
		4 // crc
	buf := make([]byte, 0, size)
	le := binary.LittleEndian

	buf = append(buf, accumulatorMagic[:]...)
	buf = le.AppendUint64(buf, CodecVersion)
	buf = le.AppendUint64(buf, uint64(n))
	for _, v := range a.sched.waitings {
		buf = le.AppendUint64(buf, uint64(v))
	}
	for _, v := range a.sched.lengths {
		buf = le.AppendUint64(buf, uint64(v))
	}
	for _, v := range a.sched.carbons {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range a.sched.baselines {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range a.costs {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	buf = append(buf, a.sched.queues...)
	for _, v := range a.cpuHours {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	buf = le.AppendUint64(buf, uint64(a.evictions))
	buf = le.AppendUint64(buf, math.Float64bits(a.wastedCPUHours))
	for o := range a.usage {
		buf = le.AppendUint64(buf, uint64(len(a.usage[o])))
		for _, v := range a.usage[o] {
			buf = le.AppendUint64(buf, uint64(v))
		}
	}
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// accDecoder is a bounds-checked cursor over an encoded accumulator. Any
// out-of-range read flips err, and every subsequent read is a no-op, so
// decode loops never panic on truncated input.
type accDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *accDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *accDecoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.fail("metrics: truncated accumulator (need %d bytes at offset %d of %d)", n, d.off, len(d.data))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *accDecoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *accDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// decodeInts fills dst from the next len(dst) little-endian u64s. The
// column's bounds are checked once; the loop then runs without a cursor
// or error check per element.
func decodeInts[T ~int64](d *accDecoder, dst []T) {
	b := d.bytes(8 * len(dst))
	for i := 0; len(b) >= 8; i++ {
		dst[i] = T(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
}

// decodeFloats is decodeInts for a column of Float64bits patterns.
func (d *accDecoder) decodeFloats(dst []float64) {
	b := d.bytes(8 * len(dst))
	for i := 0; len(b) >= 8; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
}

// length reads a u64 element count and sanity-bounds it against the bytes
// remaining, so a corrupted count cannot drive a multi-gigabyte make.
func (d *accDecoder) length(elemSize int) int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.data)-d.off)/uint64(elemSize) {
		d.fail("metrics: accumulator length %d exceeds remaining payload", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// DecodeAccumulator parses a blob produced by EncodeAccumulator. It
// returns an error — never a partial accumulator — on a bad magic,
// version mismatch, checksum failure, truncation, or trailing garbage.
func DecodeAccumulator(data []byte) (*Accumulator, error) {
	if len(data) < len(accumulatorMagic)+8+8+4 {
		return nil, fmt.Errorf("metrics: encoded accumulator too short (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("metrics: accumulator checksum mismatch (got %08x want %08x)", got, want)
	}
	d := &accDecoder{data: body}
	var magic [8]byte
	copy(magic[:], d.bytes(8))
	if magic != accumulatorMagic {
		return nil, fmt.Errorf("metrics: bad accumulator magic %q", magic)
	}
	if v := d.u64(); v != CodecVersion {
		return nil, fmt.Errorf("metrics: accumulator codec version %d, want %d", v, CodecVersion)
	}

	n := d.length(1)
	a := &Accumulator{sched: newScheduleColumns(n), costs: make([]float64, n)}
	decodeInts(d, a.sched.waitings)
	decodeInts(d, a.sched.lengths)
	d.decodeFloats(a.sched.carbons)
	d.decodeFloats(a.sched.baselines)
	d.decodeFloats(a.costs)
	copy(a.sched.queues, d.bytes(n))
	for o := range a.cpuHours {
		a.cpuHours[o] = d.f64()
	}
	a.evictions = int(d.u64())
	a.wastedCPUHours = d.f64()
	for o := range a.usage {
		a.usage[o] = make([]int64, d.length(8))
		decodeInts(d, a.usage[o])
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("metrics: %d trailing bytes after accumulator", len(d.data)-d.off)
	}
	return a, nil
}
