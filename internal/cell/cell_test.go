package cell

import (
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// decode runs one body through the strict decoder and Normalize, as
// /v1/simulate does.
func decode(body string) (Spec, error) {
	s := Default()
	err := Decode([]byte(body), &s)
	if err == nil {
		err = s.Normalize()
	}
	return s, err
}

func TestDefaultIsNormal(t *testing.T) {
	s := Default()
	if err := s.Normalize(); err != nil || s != Default() {
		t.Fatalf("Default normalizes to %+v, %v", s, err)
	}
	if got, err := decode(`{}`); err != nil || got != Default() {
		t.Fatalf("{} decodes to %+v, %v; want Default", got, err)
	}
}

// TestZeroMeansWhatItSays: a field left out takes Default's value, and a
// field that is given, zero included, means what it says.
func TestZeroMeansWhatItSays(t *testing.T) {
	s, err := decode(`{"waits":"0x24","seed":0,"reserved":0,"jobs":null}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config(nil)
	if want := workload.PaperQueues(0, 24*simtime.Hour); !slices.Equal(cfg.Queues, want) {
		t.Errorf("waits 0x24: queues %v, want %v (no short wait)", cfg.Queues, want)
	}
	if cfg.Seed != 0 || s.Jobs != Default().Jobs {
		t.Errorf("seed %d, jobs %+v; want seed 0 and the default, ungiven count", cfg.Seed, s.Jobs)
	}
	for _, body := range []string{`{"jobs":0}`, `{"days":0}`} {
		if _, err := decode(body); err == nil {
			t.Errorf("%s: accepted; a given zero size is an empty run", body)
		}
	}
}

func TestNormalizeCanonical(t *testing.T) {
	s, err := decode(`{"policy":"Wait-AWhile","region":" sa-au ","family":"AZURE","waits":"3X12"}`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy != "wait-awhile" || s.Region != "SA-AU" || s.Family != "azure" {
		t.Errorf("normalized to %+v", s)
	}
	if want := workload.PaperQueues(3*simtime.Hour, 12*simtime.Hour); !slices.Equal(s.Config(nil).Queues, want) {
		t.Errorf("waits 3X12: queues %v, want %v", s.Config(nil).Queues, want)
	}
}

// TestErrorsNameTheField: every rejected input names its field, by the
// JSON name on the wire and by the CLI flag through FlagError.
func TestErrorsNameTheField(t *testing.T) {
	cases := []struct{ body, field string }{
		{`{"policy":"nope"}`, "policy"},
		{`{"region":"XX"}`, "region"},
		{`{"family":"netflix"}`, "family"},
		{`{"jobs":-1}`, "jobs"},
		{`{"jobs":2.5}`, "jobs"},
		{`{"family":"poisson","jobs":1000}`, "jobs"},
		{`{"days":-3}`, "days"},
		{`{"days":3651}`, "days"},
		{`{"reserved":-1}`, "reserved"},
		{`{"policy":"ecovisor","work_conserving":true}`, "work_conserving"},
		{`{"eviction":1}`, "eviction"},
		{`{"eviction":-0.1}`, "eviction"},
		{`{"spot_max_hours":-1}`, "spot_max_hours"},
		{`{"spot_max_hours":240.5}`, "spot_max_hours"},
		{`{"checkpoint_hours":1e300}`, "checkpoint_hours"},
		{`{"waits":"6x"}`, "waits"},
		{`{"waits":"6x24x1"}`, "waits"},
		{`{"waits":"-1x24"}`, "waits"},
		{`{"waits":"6x241"}`, "waits"},
		{`{"waits":"6xnan"}`, "waits"},
		{`{"days":1,"waits":"6x97"}`, "waits"},
	}
	flags := map[string]string{"waits": "w"}
	for _, c := range cases {
		_, err := decode(c.body)
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != c.field || !strings.Contains(err.Error(), `"`+c.field+`"`) {
			t.Errorf("%s: err = %v, want a FieldError naming %q", c.body, err, c.field)
			continue
		}
		want := "-" + c.field
		if f := flags[c.field]; f != "" {
			want = "-" + f
		}
		if got := FlagError(err, flags).Error(); !strings.HasPrefix(got, want+" ") {
			t.Errorf("%s: FlagError = %q, want it to start with %q", c.body, got, want)
		}
	}
	// The horizon bounds every hour field: 240 h for the default 7 days.
	if _, err := decode(`{"spot_max_hours":240,"checkpoint_hours":240,"waits":"240x240"}`); err != nil {
		t.Errorf("hours at the horizon: %v", err)
	}
}

// TestConfigKnobs: every knob reaches the run configuration.
func TestConfigKnobs(t *testing.T) {
	s, err := decode(`{"policy":"lowest-window","days":4,"seed":11,"reserved":7,"work_conserving":true,
		"spot_max_hours":2.5,"eviction":0.25,"checkpoint_hours":0.5,"waits":"1x36"}`)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Config(nil)
	want := core.Config{Reserved: 7, WorkConserving: true, SpotMaxLen: 150, EvictionRate: 0.25,
		CheckpointInterval: 30, Horizon: 7 * simtime.Day, Seed: 11}
	if got.Policy == nil || got.Policy.Name() != "Lowest-Window" ||
		!slices.Equal(got.Queues, workload.PaperQueues(simtime.Hour, 36*simtime.Hour)) {
		t.Errorf("policy %v, queues %v", got.Policy, got.Queues)
	}
	got.Policy, got.Queues = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("config %+v, want %+v", got, want)
	}
}

// TestBuildShares: a Memo hands cells of one recipe the same traces, keyed
// only by what each trace reads, and builds what Build without one builds.
func TestBuildShares(t *testing.T) {
	var m Memo
	a, _ := decode(`{"jobs":40,"days":2,"seed":5}`)
	b, _ := decode(`{"jobs":40,"days":2,"seed":5,"policy":"nowait","reserved":3}`)
	c, _ := decode(`{"jobs":40,"days":2,"seed":6}`)
	cfgA, jobsA := a.Build(&m)
	cfgB, jobsB := b.Build(&m)
	cfgC, jobsC := c.Build(&m)
	if jobsA != jobsB || cfgA.Carbon != cfgB.Carbon {
		t.Error("one recipe under other knobs built new traces")
	}
	if jobsC == jobsA || cfgC.Carbon != cfgA.Carbon {
		t.Error("another seed must change the workload and only the workload")
	}
	given, _ := decode(`{"jobs":1000}`)
	_, givenJobs := given.Build(&m)
	if _, defaultJobs := Default().Build(&m); givenJobs != defaultJobs {
		t.Error("a given count equal to the default built another workload")
	}
	fresh, freshJobs := a.Build(nil)
	fpMemo, _ := cfgA.Fingerprint(jobsA)
	fpFresh, _ := fresh.Fingerprint(freshJobs)
	if fpMemo != fpFresh || jobsA.Len() != 40 || cfgA.Carbon.Len() != (2+SlackDays)*24 {
		t.Errorf("memoized and fresh builds differ, or the recipe was not followed: %d jobs, %d hours", jobsA.Len(), cfgA.Carbon.Len())
	}
}

// FuzzSpec feeds arbitrary bodies through Decode and Normalize. Neither
// may panic; every rejection names a field or is a JSON syntax error; and
// an accepted spec normalizes to itself, builds, and, when small, runs.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"policy":"carbon-time","region":"CA-US","jobs":300,"days":2,"seed":424242}`,
		`{"policy":"wait-awhile","region":"sa-au","family":"azure","jobs":40,"days":2,"seed":3,"reserved":4,"spot_max_hours":2,"eviction":0.3,"checkpoint_hours":0.5,"waits":"0x48"}`,
		`{"family":"poisson","days":1,"work_conserving":true,"reserved":2}`,
		`{"family":"poisson","jobs":5}`,
		`{"policy":"ecovisor","work_conserving":true,"jobs":5,"days":1}`,
		`{"jobs":20,"days":1,"reserved":9223372036854775807,"seed":-9223372036854775808}`,
		`{"jobs":20,"days":2,"spot_max_hours":120,"eviction":0.999,"checkpoint_hours":0.001}`,
		`{"waits":"6x1e15"}`, `{"waits":"infx24"}`, `{"spot_max_hours":1e300}`,
		`{"eviction_rate":0.1}`, `{"jobs":"5"}`, `{"days":1e400}`, `{"jobs":{}}`,
		`[]`, `null`, ``, `{"jobs":5`, `{} {}`, `{"JOBS":5,"Days":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := Default()
		err := Decode(body, &s)
		if err == nil {
			err = s.Normalize()
		}
		if err != nil {
			if !namesFieldOrSyntax(err) {
				t.Fatalf("%q: error %q names no field and is no JSON syntax error", body, err)
			}
			return
		}
		again := s
		if err := again.Normalize(); err != nil || again != s {
			t.Fatalf("%q: normalized %+v renormalizes to %+v, %v", body, s, again, err)
		}
		// Build only what a fuzz worker can hold.
		if s.Days > 60 || (s.Family != poisson && s.Jobs.N > 2000) {
			return
		}
		cfg, jobs := s.Build(nil)
		if s.Days <= 2 && jobs.Len() <= 100 {
			if _, err := core.Run(cfg, jobs); err != nil {
				t.Fatalf("%q: %v", body, err)
			}
		}
	})
}

// namesFieldOrSyntax reports whether err names the field at fault or is
// an error of JSON syntax (or of the body's shape).
func namesFieldOrSyntax(err error) bool {
	var fe *FieldError
	var se *json.SyntaxError
	var te *json.UnmarshalTypeError
	msg := err.Error()
	switch {
	case errors.As(err, &fe):
		return fe.Field != "" && strings.Contains(msg, `"`+fe.Field+`"`)
	case errors.As(err, &te):
		return te.Field != ""
	case errors.As(err, &se), errors.Is(err, io.ErrUnexpectedEOF):
		return true
	}
	return strings.Contains(msg, "unknown field \"") || strings.Contains(msg, "want one object") ||
		strings.Contains(msg, "trailing data")
}
