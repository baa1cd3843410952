package serve

import (
	"reflect"
	"testing"
)

// FuzzAdviseDecode feeds arbitrary bodies through the /v1/advise pipeline:
// strict decode as a batch of one, normalization, and — when both accept —
// the decision itself. Malformed input is reported as an error (the
// endpoint's 400), never a panic; whatever the strict decoder accepts,
// encoding/json decodes into an equal AdviseRequest; and anything that
// passes validation must produce a decision.
func FuzzAdviseDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{{`,
		`null`,
		`[1,2,3]`,
		`"just a string"`,
		`{"policy":"carbon-time","region":"CA-US","length_minutes":120}`,
		`{"policy":"wait-awhile","region":"SE","length_minutes":90,"arrival_minute":61,"cpus":3}`,
		`{"policy":"ecovisor","region":"NL","length_minutes":45,"queue":"long"}`,
		`{"policy":"mystery","region":"CA-US","length_minutes":10}`,
		`{"policy":"nowait","region":"??","length_minutes":10}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":-5}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":99999999999}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10,"max_wait_minutes":-1}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10,"max_wait_minutes":999999999}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10,"arrival_minute":-7}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10,"cpus":-1}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10,"queue":"medium"}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10,"unknown_field":true}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10} trailing`,
		`{"policy":"nowait","region":"ca-us","length_minutes":1,"avg_length_minutes":1,"spot_max_minutes":1}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10,"jobs":[]}`,
		`{"policy":"nowait","region":"CA-US","Length_Minutes":10}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10,"length_minutes":11}`,
		`{"policy":"nowait","region":"CA-US","length_minutes":10,"cpus":null}`,
	}
	seeds = append(seeds, escapeSeeds(func(key, value string) string {
		return `{"policy":` + value + `,"region":"CA-US",` + key + `:120,"queue":"long"}`
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
		if err := decodeAdviseBytes(&d, body, &batch); err != nil {
			return // → 400, by contract
		}
		got := AdviseRequest{Policy: batch.Policy, Region: batch.Region, AdviseJob: batch.Jobs[0]}
		ref, referr := decodeRef[AdviseRequest](body)
		if referr != nil {
			t.Fatalf("strict decoder accepted what encoding/json rejects (%v): %q", referr, body)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("strict decoder diverges from encoding/json\n got %+v\nwant %+v\nbody %q", got, ref, body)
		}
		target, _, err := srv.normalizeAdvise(&batch)
		if err != nil {
			return // → 400, by contract
		}
		job := &batch.Jobs[0]
		resp, err := adviseInto(&target, job, new(adviseScratch))
		if err != nil {
			t.Fatalf("validated request failed to advise: %v (job %+v)", err, job)
		}
		if resp.StartMinute < job.ArrivalMinute {
			t.Fatalf("advice starts before arrival: %+v", resp)
		}
		if resp.FinishMinute < resp.StartMinute+job.LengthMinutes {
			t.Fatalf("finish precedes start+length: %+v", resp)
		}
	})
}
