package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"

	"github.com/carbonsched/gaia/internal/simtime"
)

// This file is the fleet-scale advisory path: POST /v1/advise/batch
// answers thousands of scheduling queries in one request over the same
// startup-built oracle tables as /v1/advise, amortizing the per-request
// HTTP, decode, and policy-context costs across the whole batch. The
// response is NDJSON — one line per job, in input order, each line
// byte-identical to the /v1/advise response body for the equivalent
// single request (the batch differential test pins this). /v1/advise is
// a batch of one through the same decoder, normalization and job type.
//
// The per-job budget is what makes the endpoint worth having, so the hot
// loop is allocation-lean end to end: a hand-rolled strict decoder
// (batchdec.go), one pooled scratch carrying the policy contexts and
// output buffers across jobs, the hand-rolled response encoder
// (jsonenc.go), and an intra-batch memo that answers duplicate queries by
// replaying the first verdict's bytes — fleet batches are template-heavy,
// and an advisory answer is a pure function of the normalized job.
//
// Because an answer is a pure function of its job, the batch is decided
// in blocks of batchDeadlineStride jobs, each in arrival order and
// written in request order. A policy context then sees its jobs'
// arrivals move forward, the order WaitAwhile's rolling rank window is
// built for: in request order, jobs at scattered arrivals rebuild it job
// after job.
//
// Error contract: everything is validated before the first response byte
// — a bad item fails the whole request with 400 naming jobs[i], so a 200
// status means every line that follows is a verdict. After streaming
// starts the only failures left are client disconnect and deadline
// expiry, both of which truncate the stream mid-line at worst; a client
// sees that as a line without a trailing newline.

// Guardrails on batch inputs, scaled up from the single-request bounds.
const (
	maxBatchBodyLen = 16 << 20
	maxBatchJobs    = 100_000
)

// batchDeadlineStride is the block a batch is decided and written in: how
// many jobs are answered between deadline checks while streaming
// (checking every job would cost more than a job), and how many lines a
// block holds before it is written.
const batchDeadlineStride = 512

// batchMemoMax caps the intra-batch dedup memo: past this many distinct
// queries the remainder computes directly, bounding the memo's memory at
// a few MB however large (and however diverse) the batch is.
const batchMemoMax = 1 << 14

// AdviseBatchRequest is one batch query: the policy and region are shared
// by every job (one advisory context answers the whole batch). A
// /v1/advise body decodes into a batch of one.
type AdviseBatchRequest struct {
	// Policy and Region apply to every job; see AdviseRequest.
	Policy string `json:"policy"`
	Region string `json:"region"`
	// Jobs are the queries, answered in order, one NDJSON line each.
	Jobs []AdviseJob `json:"jobs"`
}

// memoKey is a normalized job: within one batch, whose policy and region
// are fixed, equal keys get byte-identical verdicts. Deriving it from
// AdviseJob keeps every job field in the key; the wait is held by value
// because its pointer compares by identity.
type memoKey struct {
	job     AdviseJob // MaxWaitMinutes nil
	maxWait int64
}

func newMemoKey(j *AdviseJob) memoKey {
	k := memoKey{job: *j, maxWait: *j.MaxWaitMinutes}
	k.job.MaxWaitMinutes = nil
	return k
}

// lineSpan locates one verdict line: in the batch arena, where the memo's
// lines live, or, once the memo is full, in the block's own lines.
type lineSpan struct {
	off, end int
	inBlock  bool
}

func (s *Server) handleAdviseBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.BatchTimeout)
	defer cancel()

	sc := adviseScratchPool.Get().(*adviseScratch)
	defer adviseScratchPool.Put(sc)
	body, err := readBody(&sc.body, r.Body, maxBatchBodyLen)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	batch := &sc.batch
	if err := decodeAdviseBatchBytes(&sc.dec, body, batch); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(batch.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "jobs must contain at least one entry")
		return
	}
	// Validate every job before the first response byte. Normalization
	// fills the jobs in place, so the streaming pass repeats no
	// validation work.
	t, bad, err := s.normalizeAdvise(batch)
	if err != nil {
		if bad >= 0 {
			err = fmt.Errorf("jobs[%d]: %w", bad, err)
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	if sc.memo == nil {
		sc.memo = make(map[memoKey]lineSpan)
	}
	clear(sc.memo)
	sc.arena = sc.arena[:0]

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 64<<10)
	for lo := 0; lo < len(batch.Jobs); lo += batchDeadlineStride {
		if ctx.Err() != nil {
			break // deadline or client gone: truncate the stream
		}
		block := batch.Jobs[lo:min(lo+batchDeadlineStride, len(batch.Jobs))]
		if i, err := adviseBlock(&t, block, sc); err != nil {
			// Unreachable for validated input (Decide is deterministic and
			// its decisions validate); if a policy bug ever trips it, the
			// stream truncated before the job's block is the only honest
			// signal left post-200.
			s.cfg.Logf("serve: batch advise job %d: %v (stream truncated)", lo+i, err)
			break
		}
		if writeBlock(bw, sc) != nil {
			break
		}
	}
	bw.Flush()
}

// adviseBlock decides a block of normalized jobs in arrival order (ties
// in request order) and leaves each job's line span in sc.spans, in
// request order. A job whose query the memo holds is answered by its
// line; each new line goes to the memo's arena while the memo has room,
// and to the block's lines after. On failure it returns the index of the
// job in block with the error.
func adviseBlock(t *adviseTarget, block []AdviseJob, sc *adviseScratch) (int, error) {
	sc.arrivals = sc.arrivals[:0]
	for i := range block {
		sc.arrivals = append(sc.arrivals, simtime.Time(block[i].ArrivalMinute))
	}
	sc.ord = simtime.OrderInto(slices.Grow(sc.ord[:0], len(block)), &sc.cnt, sc.arrivals)
	sc.spans = slices.Grow(sc.spans[:0], len(block))[:len(block)]
	sc.lines = sc.lines[:0]
	for _, i := range sc.ord {
		job := &block[i]
		key := newMemoKey(job)
		if span, ok := sc.memo[key]; ok {
			sc.spans[i] = span
			continue
		}
		resp, err := adviseInto(t, job, sc)
		if err != nil {
			return int(i), err
		}
		if len(sc.memo) < batchMemoMax {
			off := len(sc.arena)
			sc.arena = append(appendAdviseResponse(sc.arena, resp), '\n')
			sc.spans[i] = lineSpan{off: off, end: len(sc.arena)}
			sc.memo[key] = sc.spans[i]
		} else {
			off := len(sc.lines)
			sc.lines = append(appendAdviseResponse(sc.lines, resp), '\n')
			sc.spans[i] = lineSpan{off: off, end: len(sc.lines), inBlock: true}
		}
	}
	return 0, nil
}

// writeBlock writes the lines adviseBlock left in sc.spans, in request
// order.
func writeBlock(bw *bufio.Writer, sc *adviseScratch) error {
	for _, span := range sc.spans {
		lines := sc.arena
		if span.inBlock {
			lines = sc.lines
		}
		if _, err := bw.Write(lines[span.off:span.end]); err != nil {
			return err
		}
	}
	return nil
}

// readBody reads at most limit bytes into the pooled buffer *dst,
// erroring on larger bodies.
func readBody(dst *[]byte, r io.Reader, limit int) ([]byte, error) {
	buf := (*dst)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			*dst = buf
			if len(buf) > limit {
				return nil, fmt.Errorf("body exceeds %d bytes", limit)
			}
			return buf, nil
		}
		if err != nil {
			*dst = buf
			return nil, fmt.Errorf("reading body: %w", err)
		}
		if len(buf) > limit {
			*dst = buf
			return nil, fmt.Errorf("body exceeds %d bytes", limit)
		}
	}
}
