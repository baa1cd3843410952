// Package cell describes one simulation cell as a Spec: a policy with the
// paper's cost-aware mechanisms over one region's synthetic carbon trace
// and one generated workload. gaia-sim's flags and scenario files,
// gaia-serve's /v1/simulate and gaia-trace's workloads all go through it.
// A field left out takes Default's value, and a field that is given means
// what it says: JSON is decoded into a copy of Default, and the CLIs take
// their flag defaults from it.
package cell

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// SlackDays pads a cell's carbon trace and accounting horizon past its
// workload span, so the last arrivals can still wait out their queues.
// MaxDays bounds the span: ten years, far past the paper's one-year
// traces, and far below where (Days+SlackDays)*24 hours overflows. Every
// carbon trace a cell generates is drawn from carbonSeed.
const (
	SlackDays  = 3
	MaxDays    = 3650
	carbonSeed = 2022
	poisson    = "poisson"
)

// Spec is one cell: the recipe its traces are generated from (the carbon
// trace from Region over Days plus SlackDays, the workload from Family,
// Jobs, Days and Seed), then the knobs of the run over them, as
// core.Config has them. The struct is flat because encoding/json pays for
// every field it reaches through an embedded struct.
type Spec struct {
	Region string `json:"region"` // a carbon.Regions code, in any case
	// Family is alibaba, azure, mustang or poisson. A poisson workload's
	// count follows Days, so Jobs given beside it is an error.
	Family string   `json:"family"`
	Jobs   JobCount `json:"jobs"`
	Days   int      `json:"days"`
	Seed   int64    `json:"seed"` // workload generation and spot evictions

	Policy         string `json:"policy"` // a policy.Names tag, in any case
	Reserved       int    `json:"reserved"`
	WorkConserving bool   `json:"work_conserving"`
	// SpotMaxHours routes jobs up to this long to spot (0: no spot), where
	// each is evicted with probability Eviction per hour and checkpoints
	// every CheckpointHours (0: progress is lost on eviction).
	SpotMaxHours    float64 `json:"spot_max_hours"`
	Eviction        float64 `json:"eviction"`
	CheckpointHours float64 `json:"checkpoint_hours"`
	Waits           Waits   `json:"waits"`
}

// Default returns the cell every surface starts from.
func Default() Spec {
	return Spec{Region: "CA-US", Family: "alibaba", Jobs: JobCount{N: 1000}, Days: 7, Seed: 1,
		Policy: "carbon-time", Waits: Waits{Short: 6, Long: 24}}
}

// Waits holds the short and long queues' maximum waits in hours; 0 means
// no waiting. It reads and writes itself as SHORTxLONG, e.g. "6x24": a
// JSON string, and gaia-sim's -w flag (a flag.Value). So it is parsed once,
// and only when given.
type Waits struct{ Short, Long float64 }

// String writes w as SHORTxLONG.
func (w Waits) String() string {
	return strconv.FormatFloat(w.Short, 'g', -1, 64) + "x" + strconv.FormatFloat(w.Long, 'g', -1, 64)
}

// Set reads w from SHORTxLONG, the x in either case. The hours are
// range-checked by Normalize, against the cell's horizon.
func (w *Waits) Set(s string) error {
	short, long, ok := strings.Cut(strings.ToLower(s), "x")
	sh, err1 := strconv.ParseFloat(short, 64)
	lo, err2 := strconv.ParseFloat(long, 64)
	if !ok || err1 != nil || err2 != nil {
		return errors.New("is not SHORTxLONG hours, e.g. 6x24")
	}
	*w = Waits{Short: sh, Long: lo}
	return nil
}

// MarshalText writes w as SHORTxLONG, a JSON string.
func (w Waits) MarshalText() ([]byte, error) { return []byte(w.String()), nil }

// UnmarshalText reads w from SHORTxLONG; a bad value is a FieldError
// naming waits. JSON null leaves w unset, as it leaves every other field.
func (w *Waits) UnmarshalText(b []byte) error {
	if err := w.Set(string(b)); err != nil {
		return &FieldError{"waits", strconv.Quote(string(b)) + " " + err.Error()}
	}
	return nil
}

// JobCount is a job count that knows whether it was given, so that one
// given beside a poisson workload is an error while Default's is not. The
// CLIs set Given for a -jobs flag; JSON sets it for a "jobs" number.
type JobCount struct {
	N     int
	Given bool
}

// UnmarshalJSON reads the count from a JSON number; null leaves it unset,
// as it leaves every other field.
func (c *JobCount) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return &FieldError{"jobs", fmt.Sprintf("%s is not a whole number", b)}
	}
	*c = JobCount{n, true}
	return nil
}

// FieldError is an input Normalize or Decode rejects: Field is the JSON
// name of the field at fault, and Msg its value and the problem.
type FieldError struct{ Field, Msg string }

func (e *FieldError) Error() string { return strconv.Quote(e.Field) + " " + e.Msg }

// FlagError renders a FieldError as the CLI flag that sets the field:
// flags[field], or the field's own name.
func FlagError(err error, flags map[string]string) error {
	var fe *FieldError
	if !errors.As(err, &fe) {
		return err
	}
	return fmt.Errorf("-%s %s", cmp.Or(flags[fe.Field], fe.Field), fe.Msg)
}

// Decode strictly decodes the JSON object data into v, which holds the
// defaults (a Spec from Default, or a struct embedding one). A field left
// out keeps its default; a body that is not one object, an unknown field
// and trailing data are errors, and a value its field rejects (jobs,
// waits) is that field's *FieldError.
func Decode(data []byte, v any) error {
	if rest := bytes.TrimLeft(data, " \t\r\n"); len(rest) == 0 || rest[0] != '{' {
		return errors.New("invalid JSON: want one object")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var fe *FieldError
		if errors.As(err, &fe) {
			return err // valid JSON, but a field's value is at fault
		}
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
		return errors.New("invalid JSON: trailing data after the object")
	}
	return nil
}

// Normalize checks every field and puts s in canonical form (policy and
// family in lower case, region in upper case), so equal cells compare
// equal. Its errors are *FieldError.
func (s *Spec) Normalize() error {
	s.Policy = strings.ToLower(s.Policy)
	pol, err := policy.ByName(s.Policy)
	if err != nil {
		return &FieldError{"policy", fmt.Sprintf("%q is not a policy (have %v)", s.Policy, policy.Names())}
	}
	s.Region = strings.ToUpper(strings.TrimSpace(s.Region))
	if _, err := carbon.RegionByCode(s.Region); err != nil {
		return &FieldError{"region", fmt.Sprintf("%q is not a region (have CA-US, KY-US, NL, ON-CA, SA-AU, SE)", s.Region)}
	}
	s.Family = strings.ToLower(s.Family)
	if _, ok := workload.FamilyByName(s.Family); !ok && s.Family != poisson {
		return &FieldError{"family", fmt.Sprintf("%q is not a workload family (have alibaba, azure, mustang, poisson)", s.Family)}
	}
	switch {
	case s.Family == poisson && s.Jobs.Given:
		return &FieldError{"jobs", fmt.Sprintf("%d is given, but a poisson workload's count follows days; leave jobs out", s.Jobs.N)}
	case s.Jobs.N < 1:
		return &FieldError{"jobs", fmt.Sprintf("%d must be at least 1", s.Jobs.N)}
	case s.Days < 1:
		return &FieldError{"days", fmt.Sprintf("%d must be at least 1", s.Days)}
	case s.Days > MaxDays:
		return &FieldError{"days", fmt.Sprintf("%d exceeds %d, ten years", s.Days, MaxDays)}
	case s.Reserved < 0:
		return &FieldError{"reserved", fmt.Sprintf("%d must be non-negative", s.Reserved)}
	case s.WorkConserving && policy.PlansSuspendResume(pol):
		return &FieldError{"work_conserving", fmt.Sprintf("is set, but policy %s plans suspend-resume, which cannot be work-conserving", s.Policy)}
	case !(s.Eviction >= 0 && s.Eviction < 1):
		return &FieldError{"eviction", fmt.Sprintf("%v must be in [0, 1)", s.Eviction)}
	}
	// Every hour field lies within the run's horizon: a wait or a spot bound
	// past it changes nothing, and the oracle sizes its tables by the wait.
	horizon := (float64(s.Days) + SlackDays) * 24
	hours := [...]float64{s.SpotMaxHours, s.CheckpointHours, s.Waits.Short, s.Waits.Long}
	for i, field := range [...]string{"spot_max_hours", "checkpoint_hours", "waits", "waits"} {
		if h := hours[i]; !(h >= 0 && h <= horizon) {
			return &FieldError{field, fmt.Sprintf("%v h is outside [0, %v], the run's horizon in hours (days + %d)", h, horizon, SlackDays)}
		}
	}
	return nil
}

// must panics on a lookup that fails only for a spec Normalize rejects.
func must[T any](v T, err error) T {
	if err != nil {
		panic("cell: building a spec Normalize rejects: " + err.Error())
	}
	return v
}

// Carbon generates Region's synthetic carbon trace over Days plus SlackDays.
func (s Spec) Carbon() *carbon.Trace {
	return must(carbon.RegionByCode(s.Region)).Generate((s.Days+SlackDays)*24, carbonSeed)
}

// Workload generates Family's workload over Days from Seed.
func (s Spec) Workload() *workload.Trace {
	rng := rand.New(rand.NewSource(s.Seed))
	span := simtime.Duration(s.Days) * simtime.Day
	if s.Family == poisson {
		return workload.SectionThreeWorkload().Generate(rng, span)
	}
	fam, _ := workload.FamilyByName(s.Family) // Normalize vetted it
	return fam.GenerateByCount(rng, s.Jobs.N, span)
}

// Config returns the cell's run configuration over carbon trace ci.
func (s Spec) Config(ci *carbon.Trace) core.Config {
	return core.Config{
		Policy:             must(policy.ByName(s.Policy)),
		Carbon:             ci,
		Reserved:           s.Reserved,
		WorkConserving:     s.WorkConserving,
		SpotMaxLen:         simtime.HoursDur(s.SpotMaxHours),
		EvictionRate:       s.Eviction,
		CheckpointInterval: simtime.HoursDur(s.CheckpointHours),
		Queues:             workload.PaperQueues(simtime.HoursDur(s.Waits.Short), simtime.HoursDur(s.Waits.Long)),
		Horizon:            simtime.Duration(s.Days+SlackDays) * simtime.Day,
		Seed:               s.Seed,
	}
}

// Build returns the run of a normalized cell: its configuration and its
// workload, with both traces generated, or shared through m if not nil.
func (s Spec) Build(m *Memo) (core.Config, *workload.Trace) {
	if m == nil {
		return s.Config(s.Carbon()), s.Workload()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ci := memo(&m.carbon, carbonRecipe{s.Region, s.Days}, s.Carbon)
	jobs := memo(&m.jobs, jobsRecipe{s.Family, s.Jobs.N, s.Days, s.Seed}, s.Workload)
	return s.Config(ci), jobs
}

// Memo shares generated traces between cells, keyed by the recipe fields
// each trace reads. It saves only generation (fingerprints hash trace
// contents), and each table is emptied at maxMemo traces, since clients
// choose seeds. The zero Memo is ready to use.
type Memo struct {
	mu     sync.Mutex
	carbon map[carbonRecipe]*carbon.Trace
	jobs   map[jobsRecipe]*workload.Trace
}

// carbonRecipe and jobsRecipe are what Spec.Carbon and Spec.Workload read.
type (
	carbonRecipe struct {
		region string
		days   int
	}
	jobsRecipe struct {
		family     string
		jobs, days int
		seed       int64
	}
)

const maxMemo = 256

func memo[K comparable, T any](table *map[K]T, key K, generate func() T) T {
	if v, ok := (*table)[key]; ok {
		return v
	}
	if *table == nil || len(*table) >= maxMemo {
		*table = make(map[K]T)
	}
	v := generate()
	(*table)[key] = v
	return v
}
