package serve

import (
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the advise endpoints' hand-rolled request decoder. The
// stdlib decoder costs more per job than answering the job does, so both
// endpoints parse their known shapes directly, with one object walk and
// one job-field parser: /v1/advise as a batch of one whose job fields sit
// beside policy and region, /v1/advise/batch with a jobs array. The
// accepted grammar is a strict subset of what encoding/json accepts —
// canonical JSON, meaning everything json.Marshal(AdviseRequest) or
// json.Marshal(AdviseBatchRequest) can emit, plus arbitrary inter-token
// whitespace:
//
//   - field names are case-SENSITIVE and unknown ones are errors;
//   - duplicate fields are errors (stdlib silently keeps the last);
//   - null is rejected everywhere;
//   - integers are plain decimal (no exponents, fractions, or leading
//     zeros — stdlib rejects those for int64 fields too, just later);
//   - unpaired UTF-16 surrogate escapes are errors (stdlib substitutes
//     U+FFFD).
//
// Everything this decoder accepts, encoding/json accepts with the
// identical decoded value — FuzzAdviseDecode and FuzzAdviseBatchDecode pin
// that property differentially, so neither endpoint can drift from the
// documented AdviseRequest and AdviseBatchRequest semantics.

// batchDecoder carries one parse over a fully-read body into req. The
// scratch buffer is reused across string unescapes (and across requests,
// via adviseScratch).
type batchDecoder struct {
	data    []byte
	pos     int
	scratch []byte
	req     *AdviseBatchRequest
}

func (d *batchDecoder) errAt(format string, args ...any) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *batchDecoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// expect consumes c (after whitespace) or fails.
func (d *batchDecoder) expect(c byte) error {
	d.skipWS()
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		return d.errAt("expected %q", c)
	}
	d.pos++
	return nil
}

// peek returns the next non-whitespace byte without consuming it, or 0 at
// end of input.
func (d *batchDecoder) peek() byte {
	d.skipWS()
	if d.pos >= len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// parseStringBytes parses a JSON string and returns its decoded bytes.
// The result may alias d.data (no escapes) or d.scratch (escapes), so
// callers must copy before the next parse call.
func (d *batchDecoder) parseStringBytes() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c == '"' {
			s := d.data[start:d.pos]
			d.pos++
			return s, nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return d.parseStringSlow(start)
		}
		d.pos++
	}
	return nil, d.errAt("unterminated string")
}

// parseStringSlow finishes a string that contains escapes, control bytes,
// or non-ASCII. It mirrors encoding/json's unquoting for everything it
// accepts (including U+FFFD substitution for invalid UTF-8 bytes), and
// rejects the rest.
func (d *batchDecoder) parseStringSlow(start int) ([]byte, error) {
	buf := append(d.scratch[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.scratch = buf
			return buf, nil
		case c == '\\':
			d.pos++
			if d.pos >= len(d.data) {
				return nil, d.errAt("unterminated escape")
			}
			e := d.data[d.pos]
			d.pos++
			switch e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, err := d.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					if d.pos+1 >= len(d.data) || d.data[d.pos] != '\\' || d.data[d.pos+1] != 'u' {
						return nil, d.errAt("unpaired surrogate escape")
					}
					d.pos += 2
					r2, err := d.hex4()
					if err != nil {
						return nil, err
					}
					combined := utf16.DecodeRune(r, r2)
					if combined == utf8.RuneError {
						return nil, d.errAt("invalid surrogate pair")
					}
					r = combined
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return nil, d.errAt("invalid escape \\%c", e)
			}
		case c < 0x20:
			return nil, d.errAt("control character in string")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, utf8.RuneError) // as encoding/json does
			} else {
				buf = append(buf, d.data[d.pos:d.pos+size]...)
			}
			d.pos += size
		}
	}
	return nil, d.errAt("unterminated string")
}

func (d *batchDecoder) hex4() (rune, error) {
	if d.pos+4 > len(d.data) {
		return 0, d.errAt("truncated \\u escape")
	}
	var r rune
	for _, c := range d.data[d.pos : d.pos+4] {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r += rune(c - '0')
		case c >= 'a' && c <= 'f':
			r += rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r += rune(c-'A') + 10
		default:
			return 0, d.errAt("invalid \\u escape")
		}
	}
	d.pos += 4
	return r, nil
}

// parseInt64 parses a plain decimal integer with the same accept/reject
// outcome encoding/json has for int64-typed fields: leading zeros,
// fractions, exponents, and overflow are all errors there too.
func (d *batchDecoder) parseInt64() (int64, error) {
	d.skipWS()
	neg := false
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		neg = true
		d.pos++
	}
	if d.pos >= len(d.data) || d.data[d.pos] < '0' || d.data[d.pos] > '9' {
		return 0, d.errAt("expected a number")
	}
	var v uint64
	if d.data[d.pos] == '0' {
		d.pos++
	} else {
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			digit := uint64(d.data[d.pos] - '0')
			if v > (1<<63-digit)/10 {
				return 0, d.errAt("integer overflow")
			}
			v = v*10 + digit
			d.pos++
		}
	}
	if d.pos < len(d.data) {
		switch d.data[d.pos] {
		case '.', 'e', 'E':
			return 0, d.errAt("non-integer number")
		case '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
			return 0, d.errAt("leading zero in number")
		}
	}
	if neg {
		return -int64(v), nil
	}
	if v == 1<<63 {
		return 0, d.errAt("integer overflow")
	}
	return int64(v), nil
}

// internQueue maps the common queue spellings to shared constants so the
// per-job hot path doesn't allocate a string for them.
func internQueue(b []byte) string {
	switch string(b) {
	case "":
		return ""
	case "short":
		return "short"
	case "long":
		return "long"
	default:
		return string(b)
	}
}

// Member bits, one per field name the advise grammar knows. Each object
// walk passes the set legal at its level; any other name is unknown.
const (
	memberLength uint16 = 1 << iota
	memberCPUs
	memberArrival
	memberQueue
	memberMaxWait
	memberAvgLength
	memberSpotMax
	memberPolicy
	memberRegion
	memberJobs

	jobMembers    = memberPolicy - 1 // the AdviseJob fields
	adviseMembers = memberPolicy | memberRegion | jobMembers
	batchMembers  = memberPolicy | memberRegion | memberJobs
)

// memberBit maps a member name to its bit, or to 0 for a name the
// grammar does not know.
func memberBit(key []byte) uint16 {
	switch string(key) {
	case "length_minutes":
		return memberLength
	case "cpus":
		return memberCPUs
	case "arrival_minute":
		return memberArrival
	case "queue":
		return memberQueue
	case "max_wait_minutes":
		return memberMaxWait
	case "avg_length_minutes":
		return memberAvgLength
	case "spot_max_minutes":
		return memberSpotMax
	case "policy":
		return memberPolicy
	case "region":
		return memberRegion
	case "jobs":
		return memberJobs
	}
	return 0
}

// decodeAdviseBytes parses one /v1/advise body into req as a batch of
// one: the job's fields sit beside policy and region, and "jobs" is an
// unknown field. req is fully reset first, reusing req.Jobs and d's
// scratch; on error its contents are unspecified.
func decodeAdviseBytes(d *batchDecoder, data []byte, req *AdviseBatchRequest) error {
	req.Jobs = append(req.Jobs[:0], AdviseJob{})
	return d.decode(data, req, adviseMembers, &req.Jobs[0])
}

// decodeAdviseBatchBytes parses one /v1/advise/batch body into req, with
// the same reuse and reset contract as decodeAdviseBytes.
func decodeAdviseBatchBytes(d *batchDecoder, data []byte, req *AdviseBatchRequest) error {
	req.Jobs = req.Jobs[:0]
	return d.decode(data, req, batchMembers, nil)
}

func (d *batchDecoder) decode(data []byte, req *AdviseBatchRequest, members uint16, job *AdviseJob) error {
	d.data, d.pos, d.req = data, 0, req
	req.Policy, req.Region = "", ""
	if err := d.object(members, job); err != nil {
		return err
	}
	d.skipWS()
	if d.pos != len(d.data) {
		return d.errAt("trailing data after request object")
	}
	return nil
}

// object parses one JSON object whose member names must be in members:
// policy, region and jobs land in d.req, the job fields in job.
func (d *batchDecoder) object(members uint16, job *AdviseJob) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	var seen uint16
	for {
		key, err := d.parseStringBytes()
		if err != nil {
			return err
		}
		bit := memberBit(key) & members
		if bit == 0 {
			return d.errAt("unknown field %q", key)
		}
		if seen&bit != 0 {
			return d.errAt("duplicate field %q", key)
		}
		seen |= bit
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := d.member(bit, job); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.errAt("expected ',' or '}'")
		}
	}
}

// member parses the value of the member named by bit.
func (d *batchDecoder) member(bit uint16, job *AdviseJob) error {
	switch bit {
	case memberJobs:
		return d.parseJobs()
	case memberPolicy, memberRegion, memberQueue:
		v, err := d.parseStringBytes()
		if err != nil {
			return err
		}
		switch bit {
		case memberPolicy:
			d.req.Policy = string(v)
		case memberRegion:
			d.req.Region = string(v)
		default:
			job.Queue = internQueue(v)
		}
		return nil
	}
	v, err := d.parseInt64()
	if err != nil {
		return err
	}
	switch bit {
	case memberLength:
		job.LengthMinutes = v
	case memberCPUs:
		job.CPUs = int(v)
	case memberArrival:
		job.ArrivalMinute = v
	case memberMaxWait:
		w := v // only this member escapes to the heap
		job.MaxWaitMinutes = &w
	case memberAvgLength:
		job.AvgLengthMinutes = v
	case memberSpotMax:
		job.SpotMaxMinutes = v
	}
	return nil
}

// parseJobs parses the jobs array into d.req.Jobs, enforcing maxBatchJobs
// during the parse so an oversized batch aborts early.
func (d *batchDecoder) parseJobs() error {
	if err := d.expect('['); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if len(d.req.Jobs) >= maxBatchJobs {
			return fmt.Errorf("jobs must contain at most %d entries", maxBatchJobs)
		}
		d.req.Jobs = append(d.req.Jobs, AdviseJob{})
		if err := d.object(jobMembers, &d.req.Jobs[len(d.req.Jobs)-1]); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.errAt("expected ',' or ']'")
		}
	}
}
