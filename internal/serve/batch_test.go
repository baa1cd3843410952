package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/policy"
)

// batchFixtureJobs is a mixed bag of job shapes: both queues (explicit
// and classified-by-length), varied arrivals, custom waits and averages,
// spot eligibility — enough variety to force mid-batch policy-context
// rebuilds and plan-shaped responses.
func batchFixtureJobs() []AdviseJob {
	wait := int64(90)
	avg := int64(30)
	return []AdviseJob{
		{LengthMinutes: 90},
		{LengthMinutes: 300, CPUs: 4, ArrivalMinute: 61 * 24, SpotMaxMinutes: 120},
		{LengthMinutes: 45, Queue: "long", ArrivalMinute: 37},
		{LengthMinutes: 90, ArrivalMinute: 500, MaxWaitMinutes: &wait, AvgLengthMinutes: avg},
		{LengthMinutes: 15, CPUs: 2, ArrivalMinute: 1440, SpotMaxMinutes: 60},
		{LengthMinutes: 90}, // duplicate of job 0: exercises context reuse
	}
}

// TestAdviseBatchDifferential pins the batch contract: for every policy,
// the NDJSON response has one line per job, in order, each byte-identical
// to the /v1/advise body for the equivalent single request.
func TestAdviseBatchDifferential(t *testing.T) {
	s := newTestServer(t, Config{TraceDays: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jobs := batchFixtureJobs()
	for _, pol := range policy.Names() {
		for _, region := range []string{"CA-US", "SA-AU"} {
			t.Run(pol+"/"+region, func(t *testing.T) {
				batch := AdviseBatchRequest{Policy: pol, Region: region, Jobs: jobs}
				body, err := json.Marshal(batch)
				if err != nil {
					t.Fatal(err)
				}
				resp, raw := postJSON(t, ts.URL+"/v1/advise/batch", string(body))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
					t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
				}
				if len(raw) == 0 || raw[len(raw)-1] != '\n' {
					t.Fatalf("response does not end in a newline: %q", raw)
				}
				lines := bytes.Split(raw[:len(raw)-1], []byte{'\n'})
				if len(lines) != len(jobs) {
					t.Fatalf("got %d lines, want %d", len(lines), len(jobs))
				}
				for i := range jobs {
					single, err := json.Marshal(AdviseRequest{Policy: pol, Region: region, AdviseJob: jobs[i]})
					if err != nil {
						t.Fatal(err)
					}
					sresp, want := postJSON(t, ts.URL+"/v1/advise", string(single))
					if sresp.StatusCode != http.StatusOK {
						t.Fatalf("single advise for job %d: status %d, body %s", i, sresp.StatusCode, want)
					}
					if !bytes.Equal(lines[i], want) {
						t.Fatalf("job %d differs from single advise\nbatch:  %s\nsingle: %s", i, lines[i], want)
					}
				}
			})
		}
	}
}

// TestAdviseBatchValidation pins the all-or-nothing error contract: any
// bad input fails the whole request with 400 before a single verdict
// byte, naming the offending job.
func TestAdviseBatchValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body, wantErr string
	}{
		{"empty body", ``, "invalid JSON"},
		{"no jobs", `{"policy":"nowait","region":"CA-US"}`, "at least one"},
		{"empty jobs", `{"policy":"nowait","region":"CA-US","jobs":[]}`, "at least one"},
		{"unknown top-level field", `{"policy":"nowait","region":"CA-US","queue":"short","jobs":[{"length_minutes":5}]}`, "invalid JSON"},
		{"unknown job field", `{"policy":"nowait","region":"CA-US","jobs":[{"length_minutes":5,"nope":1}]}`, "invalid JSON"},
		{"trailing garbage", `{"policy":"nowait","region":"CA-US","jobs":[{"length_minutes":5}]} x`, "trailing data"},
		{"truncated", `{"policy":"nowait","region":"CA-US","jobs":[{"length_minutes":5}`, "invalid JSON"},
		{"bad policy", `{"policy":"mystery","region":"CA-US","jobs":[{"length_minutes":5}]}`, "unknown policy"},
		{"bad region", `{"policy":"nowait","region":"??","jobs":[{"length_minutes":5}]}`, "unknown region"},
		{"null jobs", `{"policy":"nowait","region":"CA-US","jobs":null}`, "invalid JSON"},
		{"duplicate field", `{"policy":"nowait","policy":"nowait","region":"CA-US","jobs":[{"length_minutes":5}]}`, "duplicate"},
		{"exponent number", `{"policy":"nowait","region":"CA-US","jobs":[{"length_minutes":1e2}]}`, "invalid JSON"},
		{"second job bad", `{"policy":"nowait","region":"CA-US","jobs":[{"length_minutes":5},{"length_minutes":-1}]}`, "jobs[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+"/v1/advise/batch", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s, want 400", resp.StatusCode, raw)
			}
			if !strings.Contains(string(raw), tc.wantErr) {
				t.Fatalf("error %s does not mention %q", raw, tc.wantErr)
			}
		})
	}

	t.Run("too many jobs", func(t *testing.T) {
		var b strings.Builder
		b.WriteString(`{"policy":"nowait","region":"CA-US","jobs":[`)
		for i := 0; i <= maxBatchJobs; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{}`)
		}
		b.WriteString(`]}`)
		resp, raw := postJSON(t, ts.URL+"/v1/advise/batch", b.String())
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if !strings.Contains(string(raw), "at most") {
			t.Fatalf("error %s does not mention the job cap", raw)
		}
	})
}

// decodeRef is the reference decoder for both advise bodies:
// encoding/json with unknown fields and trailing data rejected. The strict
// decoder's accept set is a subset of this one's; the fuzz targets pin
// that whatever it accepts, this reference decodes identically.
func decodeRef[T any](body []byte) (T, error) {
	var req T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return req, fmt.Errorf("trailing data")
	}
	return req, nil
}

// escapeSeeds reach the strict decoder's string slow path: wrap places
// key as a job member name and value as the policy tag. They cover \u
// escapes (one decoding to a valid body), a surrogate pair, a lone and a
// mismatched surrogate, an invalid UTF-8 byte, a raw control byte,
// non-ASCII text, every short escape, and malformed escapes.
func escapeSeeds(wrap func(key, value string) string) []string {
	return []string{
		wrap(`"length\u005fminutes"`, `"carbon\u002dtime"`),
		wrap(`"length_minutes"`, `"carbon-time\ud83d\ude00"`),
		wrap(`"length_minutes"`, `"carbon-time\ud83d"`),
		wrap(`"length_minutes"`, `"carbon-time\ud83d\u0041"`),
		wrap(`"length_minutes"`, "\"carbon-time\xff\""),
		wrap(`"length_minutes"`, "\"carbon\x01time\""),
		wrap(`"length_minutes"`, `"carbon-tïme"`),
		wrap(`"length_minutes"`, `"\"\\\/\b\f\n\r\t"`),
		wrap(`"length_minutes"`, `"carbon\u00zz"`),
		wrap(`"length_minutes"`, `"carbon\q"`),
	}
}

// FuzzAdviseBatchDecode feeds arbitrary bodies through the batch
// pipeline: strict decode, per-job normalization, and — when everything
// validates — the decisions themselves. Malformed input maps to an error
// (the endpoint's 400), never a panic; whatever the hand-rolled decoder
// accepts must decode byte-for-byte like encoding/json; and valid batches
// must answer every job.
func FuzzAdviseBatchDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{{`,
		`null`,
		`{"policy":"nowait","region":"CA-US","jobs":[]}`,
		`{"policy":"carbon-time","region":"CA-US","jobs":[{"length_minutes":120}]}`,
		`{"policy":"wait-awhile","region":"SE","jobs":[{"length_minutes":90,"arrival_minute":61,"cpus":3},{"length_minutes":45,"queue":"long"}]}`,
		`{"policy":"suspend-resume","region":"NL","jobs":[{"length_minutes":200,"max_wait_minutes":90,"avg_length_minutes":30,"spot_max_minutes":10}]}`,
		`{"policy":"nowait","region":"CA-US","jobs":[{"length_minutes":5,"unknown":1}]}`,
		`{"policy":"nowait","region":"CA-US","jobs":[{"length_minutes":5}]} trailing`,
		`{"policy":"nowait","region":"CA-US","jobs":[{"length_minutes":-5},{"length_minutes":99999999999}]}`,
		`{"policy":"nowait","region":"CA-US","queue":"short","jobs":[{"length_minutes":5}]}`,
	}
	seeds = append(seeds, escapeSeeds(func(key, value string) string {
		return `{"policy":` + value + `,"region":"CA-US","jobs":[{` + key + `:120,"queue":"lo\u006eg"}]}`
	})...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	srv, err := New(Config{TraceDays: 2, Logf: func(string, ...any) {}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var d batchDecoder
		var batch AdviseBatchRequest
		if err := decodeAdviseBatchBytes(&d, body, &batch); err != nil {
			return // → 400, by contract
		}
		ref, referr := decodeRef[AdviseBatchRequest](body)
		if referr != nil {
			t.Fatalf("hand decoder accepted what encoding/json rejects (%v): %q", referr, body)
		}
		if len(batch.Jobs) == 0 && len(ref.Jobs) == 0 {
			batch.Jobs, ref.Jobs = nil, nil // nil vs empty: same decoded batch
		}
		if !reflect.DeepEqual(batch, ref) {
			t.Fatalf("hand decoder diverges from encoding/json\n got %+v\nwant %+v\nbody %q", batch, ref, body)
		}
		if len(batch.Jobs) == 0 || len(batch.Jobs) > maxBatchJobs {
			return // → 400, by contract
		}
		target, _, err := srv.normalizeAdvise(&batch)
		if err != nil {
			return // → 400, by contract
		}
		sc := new(adviseScratch)
		for i := range batch.Jobs {
			resp, err := adviseInto(&target, &batch.Jobs[i], sc)
			if err != nil {
				t.Fatalf("validated job %d failed to advise: %v (job %+v)", i, err, batch.Jobs[i])
			}
			line := appendAdviseResponse(nil, resp)
			want, merr := json.Marshal(resp)
			if merr != nil {
				t.Fatal(merr)
			}
			if !bytes.Equal(line, want) {
				t.Fatalf("job %d: encoder diverges from json.Marshal\n got %s\nwant %s", i, line, want)
			}
		}
	})
}

// TestAdviseBatchDeadline pins that an expired deadline truncates the
// stream instead of hanging or erroring mid-response.
func TestAdviseBatchDeadline(t *testing.T) {
	s := newTestServer(t, Config{BatchTimeout: 1}) // 1ns: expires immediately
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var b strings.Builder
	b.WriteString(`{"policy":"nowait","region":"CA-US","jobs":[`)
	for i := 0; i < 4*batchDeadlineStride; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"length_minutes":%d}`, 1+i%100)
	}
	b.WriteString(`]}`)
	resp, raw := postJSON(t, ts.URL+"/v1/advise/batch", b.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	lines := bytes.Count(raw, []byte{'\n'})
	if lines >= 4*batchDeadlineStride {
		t.Fatalf("expired deadline did not truncate the stream (%d lines)", lines)
	}
}
