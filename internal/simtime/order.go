package simtime

import "math/bits"

// Order returns 0..len(keys)-1 stably sorted ascending by key; see
// OrderInto for the algorithm.
func Order(keys []Time) []int32 {
	return OrderInto(make([]int32, len(keys)), new([]int32), keys)
}

// OrderInto fills ord (len(ord) == len(keys)) with 0..len(keys)-1 stably
// sorted ascending by key, so ties keep input order — the (time, index)
// lexicographic order both trace normalization and the direct path's
// sweep need, and the module's one time sort. It is an LSD radix sort
// over the offsets key − min: each pass is a stable counting sort on one
// digit, so the passes compose into one stable sort. When the offsets
// span fewer than 8n minutes — a million arrivals or simulation
// endpoints over a year — the whole offset is the digit and the sort is
// one counting pass. Sparser keys (a few thousand jobs spread over
// months, or a batch of advice requests over two weeks) take digits of
// about log2(n) bits, so every pass is O(n): a bucket per minute would
// cost a pass over every minute of the span, however few the keys. cnt
// is the reusable bucket buffer (resliced and cleared here, grown when
// needed); a multi-pass sort also keeps its second order column in it.
// Indices are int32, so len(keys) must stay below 2^31.
func OrderInto(ord []int32, cnt *[]int32, keys []Time) []int32 {
	n := len(keys)
	ord = ord[:n]
	for i := range ord {
		ord[i] = int32(i)
	}
	if n < 2 {
		return ord
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		if k < lo {
			lo = k
		} else if k > hi {
			hi = k
		}
	}
	// key − lo is exact in uint64 for any two int64 keys.
	maxOff := uint64(hi) - uint64(lo)
	if maxOff < uint64(8*n) {
		buckets := growCleared(cnt, int(maxOff)+2)
		for _, k := range keys {
			buckets[uint64(k)-uint64(lo)+1]++
		}
		for b := 1; b < len(buckets); b++ {
			buckets[b] += buckets[b-1]
		}
		for i, k := range keys {
			b := uint64(k) - uint64(lo)
			ord[buckets[b]] = int32(i)
			buckets[b]++
		}
		return ord
	}
	offBits := bits.Len64(maxOff)
	passes := (offBits + bits.Len(uint(n)) - 1) / bits.Len(uint(n))
	width := (offBits + passes - 1) / passes
	nb := 1 << width
	mask := uint64(nb - 1)
	buf := growCleared(cnt, nb+1+n)
	buckets, src, dst := buf[:nb+1], ord, buf[nb+1:]
	for shift := 0; shift < offBits; shift += width {
		clear(buckets)
		for _, k := range keys {
			buckets[(uint64(k)-uint64(lo))>>shift&mask+1]++
		}
		for b := 1; b < len(buckets); b++ {
			buckets[b] += buckets[b-1]
		}
		for _, id := range src {
			d := (uint64(keys[id]) - uint64(lo)) >> shift & mask
			dst[buckets[d]] = id
			buckets[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ord[0] {
		copy(ord, src)
	}
	return ord
}

// growCleared reslices *buf to n zeroed entries, reallocating only when
// its capacity is short.
func growCleared(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}
