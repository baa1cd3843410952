package metrics

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"github.com/carbonsched/gaia/internal/simtime"
)

// codecFixture builds an accumulator with every field exercised,
// including non-trivial float bit patterns and usage bins grown past the
// initial horizon.
func codecFixture() *Accumulator {
	a := NewAccumulator(5, 3*simtime.Hour)
	for i := 0; i < 5; i++ {
		a.AddJob(&JobResult{
			JobID:          i,
			Queue:          1,
			Waiting:        simtime.Duration(i * 17),
			Length:         simtime.Duration(100 + i),
			Carbon:         1.0 / float64(i+3),
			BaselineCarbon: math.Pi * float64(i),
			UsageCost:      0.0624 * float64(i),
			CPUHours:       [3]float64{float64(i), 0.5, 1e-9},
			Evictions:      i % 2,
			WastedCPUHours: 0.25,
			WastedCarbon:   0.125,
			WastedCost:     1e-3,
		})
	}
	a.AddUsage(simtime.Interval{Start: 30, End: 400}, 2, 1, 0)
	// Spill past the sized horizon so decoded bin growth is covered.
	a.AddUsage(simtime.Interval{Start: 200, End: 6*60 + 30}, 0, 0, 3)
	return a
}

// TestCodecRoundTrip pins the bit-exactness contract: a decoded
// accumulator is deep-equal to the original, private state included.
func TestCodecRoundTrip(t *testing.T) {
	a := codecFixture()
	data := EncodeAccumulator(a)
	got, err := DecodeAccumulator(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, a)
	}
}

// TestCodecRoundTripEmpty covers the zero-job, zero-horizon corner.
func TestCodecRoundTripEmpty(t *testing.T) {
	a := NewAccumulator(0, 0)
	got, err := DecodeAccumulator(EncodeAccumulator(a))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Errorf("round-trip mismatch: got %+v want %+v", got, a)
	}
}

// TestDecodeRejectsDamage feeds the decoder every class of bad input it
// must survive: truncations at each boundary, single-bit corruption,
// version/magic skew, and trailing garbage. All must error; none may
// panic or return a partial accumulator.
func TestDecodeRejectsDamage(t *testing.T) {
	data := EncodeAccumulator(codecFixture())

	if _, err := DecodeAccumulator(nil); err == nil {
		t.Error("nil input: want error")
	}
	for _, n := range []int{1, 7, 8, 16, 24, len(data) / 2, len(data) - 1} {
		if _, err := DecodeAccumulator(data[:n]); err == nil {
			t.Errorf("truncated to %d bytes: want error", n)
		}
	}
	for _, off := range []int{0, 8, 16, 24, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := DecodeAccumulator(bad); err == nil {
			t.Errorf("bit flip at offset %d: want error", off)
		}
	}
	if _, err := DecodeAccumulator(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing garbage: want error")
	}
}

// appendCRC re-checksums a mutated body, producing a blob that passes the
// crc so the structural checks behind it are reached.
func appendCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// TestDecodeRejectsVersionSkew re-checksums otherwise valid blobs with a
// bumped version or magic byte, isolating those checks from the crc.
func TestDecodeRejectsVersionSkew(t *testing.T) {
	data := EncodeAccumulator(codecFixture())
	body := append([]byte(nil), data[:len(data)-4]...)
	body[8]++ // codec version field (first byte of the u64 after magic)
	if _, err := DecodeAccumulator(appendCRC(body)); err == nil {
		t.Error("bumped codec version: want error")
	}
	body2 := append([]byte(nil), data[:len(data)-4]...)
	body2[7]++ // magic generation byte
	if _, err := DecodeAccumulator(appendCRC(body2)); err == nil {
		t.Error("bumped magic generation: want error")
	}
	// A corrupted length prefix must be caught by the bounds check, not
	// drive a huge allocation: nJobs lives right after magic+version.
	body3 := append([]byte(nil), data[:len(data)-4]...)
	body3[16] = 0xFF
	body3[17] = 0xFF
	if _, err := DecodeAccumulator(appendCRC(body3)); err == nil {
		t.Error("corrupt job count: want error")
	}
}

// refDecoder is the element-at-a-time cursor the column decoder replaced:
// every read checks its own bounds and the sticky error.
type refDecoder struct {
	data []byte
	off  int
	err  error
}

var errRefDecode = errors.New("reference decoder rejected the input")

func (d *refDecoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.err = errRefDecode
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *refDecoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *refDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *refDecoder) length(elemSize int) int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.data)-d.off)/uint64(elemSize) {
		d.err = errRefDecode
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// referenceDecode is DecodeAccumulator as it was before columns decoded
// in bulk: one bounds-checked read per element. FuzzDecodeAccumulator
// holds the column decoder to it.
func referenceDecode(data []byte) (*Accumulator, error) {
	if len(data) < len(accumulatorMagic)+8+8+4 {
		return nil, errRefDecode
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(trailer) != crc32.ChecksumIEEE(body) {
		return nil, errRefDecode
	}
	d := &refDecoder{data: body}
	var magic [8]byte
	copy(magic[:], d.bytes(8))
	if magic != accumulatorMagic || d.u64() != CodecVersion {
		return nil, errRefDecode
	}
	n := d.length(1)
	a := &Accumulator{sched: newScheduleColumns(n), costs: make([]float64, n)}
	for i := range a.sched.waitings {
		a.sched.waitings[i] = simtime.Duration(d.u64())
	}
	for i := range a.sched.lengths {
		a.sched.lengths[i] = simtime.Duration(d.u64())
	}
	for i := range a.sched.carbons {
		a.sched.carbons[i] = d.f64()
	}
	for i := range a.sched.baselines {
		a.sched.baselines[i] = d.f64()
	}
	for i := range a.costs {
		a.costs[i] = d.f64()
	}
	copy(a.sched.queues, d.bytes(n))
	for o := range a.cpuHours {
		a.cpuHours[o] = d.f64()
	}
	a.evictions = int(d.u64())
	a.wastedCPUHours = d.f64()
	for o := range a.usage {
		m := d.length(8)
		a.usage[o] = make([]int64, m)
		for i := range a.usage[o] {
			a.usage[o][i] = int64(d.u64())
		}
	}
	if d.err != nil || d.off != len(d.data) {
		return nil, errRefDecode
	}
	return a, nil
}

// codecSeeds returns encoded fixtures covering each shape the codec
// carries: no jobs, one job, every field set, usage bins grown past the
// sized horizon, and jobs with no usage bins at all.
func codecSeeds() [][]byte {
	one := NewAccumulator(1, simtime.Hour)
	one.AddJob(&JobResult{JobID: 0, Waiting: 3, Length: 60, Carbon: 1.5, BaselineCarbon: 2, UsageCost: 0.25})
	one.AddUsage(simtime.Interval{Start: 3, End: 63}, 1, 0, 0)
	grown := NewAccumulator(2, simtime.Hour)
	grown.AddUsage(simtime.Interval{Start: 0, End: 5 * 60}, 0, 2, 1)
	binless := NewAccumulator(3, 0)
	for i := 0; i < 3; i++ {
		binless.AddJob(&JobResult{JobID: i, Waiting: simtime.Duration(i), Length: 30, Carbon: 0.5,
			BaselineCarbon: 0.75, UsageCost: 0.1, CPUHours: [3]float64{0, 0, 0.5},
			Evictions: i, WastedCPUHours: 0.25 * float64(i)})
	}
	return [][]byte{
		EncodeAccumulator(NewAccumulator(0, 0)),
		EncodeAccumulator(one),
		EncodeAccumulator(codecFixture()),
		EncodeAccumulator(grown),
		EncodeAccumulator(binless),
	}
}

// FuzzDecodeAccumulator holds DecodeAccumulator to the element-at-a-time
// reference: on any input both accept or both reject, an accepted input
// decodes to DeepEqual accumulators, and it re-encodes to the same bytes.
// With reseal set the input gets a valid crc trailer appended, so
// mutations reach the structural checks behind the checksum.
func FuzzDecodeAccumulator(f *testing.F) {
	for _, data := range codecSeeds() {
		f.Add(data, false)
		body := data[:len(data)-4]
		for n := 0; n < len(body); n++ {
			f.Add(data[:n], false)
			f.Add(body[:n], true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = appendCRC(data)
		}
		got, err := DecodeAccumulator(data)
		want, refErr := referenceDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder error %v, reference error %v", err, refErr)
		}
		if err != nil {
			if got != nil {
				t.Fatal("decoder returned an accumulator with its error")
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded accumulator differs from the reference:\n got %+v\nwant %+v", got, want)
		}
		if back := EncodeAccumulator(got); !bytes.Equal(back, data) {
			t.Fatalf("accepted input re-encodes to %d different bytes (input %d)", len(back), len(data))
		}
	})
}
