package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

func TestRunDefaults(t *testing.T) {
	if err := run([]string{"-policy", "nowait", "-jobs", "50", "-days", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, p := range []string{"nowait", "allwait", "lowest-slot", "lowest-window",
		"carbon-time", "wait-awhile", "ecovisor"} {
		args := []string{"-policy", p, "-jobs", "30", "-days", "2", "-region", "SA-AU"}
		if p == "allwait" {
			args = append(args, "-reserved", "5", "-work-conserving")
		}
		if err := run(args); err != nil {
			t.Errorf("policy %s: %v", p, err)
		}
	}
}

func TestRunHybridAndSpot(t *testing.T) {
	err := run([]string{"-policy", "carbon-time", "-jobs", "50", "-days", "2",
		"-reserved", "5", "-work-conserving", "-spot-max", "2", "-eviction", "0.1"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesOutputFiles(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "res")
	err := run([]string{"-policy", "carbon-time", "-jobs", "30", "-days", "2", "-out", prefix})
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"-summary.csv", "-details.csv"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Errorf("missing %s: %v", suffix, err)
		}
	}
}

func TestRunCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ciPath := filepath.Join(dir, "ci.csv")
	wlPath := filepath.Join(dir, "wl.csv")
	// Generate input CSVs with gaia-trace's underlying logic via the
	// workload/carbon packages would duplicate; instead exercise the
	// -carbon/-workload file path with files we write here.
	writeTestTraces(t, ciPath, wlPath)
	// -jobs sizes only a generated workload, so 0 beside a file is no error.
	err := run([]string{"-policy", "lowest-window", "-carbon", ciPath, "-workload", wlPath, "-jobs", "0"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunElectricityMapsFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "em.csv")
	content := "datetime,ci\n"
	times := []string{"2022-01-01T00:00:00Z", "2022-01-01T01:00:00Z", "2022-01-01T02:00:00Z"}
	for i, ts := range times {
		content += ts + "," + itoa(100+i*50) + "\n"
	}
	// Extend to cover the scheduling window.
	for h := 3; h < 24*6; h++ {
		content += "2022-01-0" + itoa(1+h/24) + "T"
		hh := h % 24
		if hh < 10 {
			content += "0"
		}
		content += itoa(hh) + ":00:00Z,200\n"
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-policy", "nowait", "-carbon", path, "-carbon-format", "emaps",
		"-jobs", "10", "-days", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-carbon", path, "-carbon-format", "bogus"}); err == nil {
		t.Error("bad format should error")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // a fragment the error must contain
	}{
		{[]string{"-policy", "bogus"}, "-policy"},
		{[]string{"-w", "abc"}, "-w"},
		{[]string{"-region", "XX"}, "-region"},
		{[]string{"-family", "bogus"}, "-family"},
		{[]string{"-carbon", "/nonexistent/ci.csv"}, "/nonexistent/ci.csv"},
		{[]string{"-workload", "/nonexistent/wl.csv"}, "/nonexistent/wl.csv"},
		{[]string{"-eviction", "1.5", "-spot-max", "1"}, "-eviction"},
		// An empty workload is an error naming the flag, never an empty run.
		{[]string{"-jobs", "-5"}, "-jobs"},
		{[]string{"-jobs", "0"}, "-jobs"},
		{[]string{"-days", "0"}, "-days"},
		{[]string{"-days", "-1"}, "-days"},
		// A span past cell.MaxDays is an error naming the flag, never an
		// overflowed horizon (a 0-job run) or a trace too long to allocate.
		{[]string{"-days", "9223372036854775807"}, "-days"},
		{[]string{"-days", "4000000000000000"}, "-days"},
		{[]string{"-runtime", "prototype", "-jobs", "0"}, "-jobs"},
		// A poisson workload's count follows -days, so -jobs beside it is
		// an error, whatever its value.
		{[]string{"-family", "poisson", "-jobs", "5", "-days", "2"}, "-jobs"},
		{[]string{"-family", "poisson", "-jobs", "1000", "-days", "2"}, "-jobs"},
		// NaN fails every comparison, so every check must be written to fail it.
		{[]string{"-spot-max", "2", "-eviction", "nan", "-jobs", "200", "-days", "2"}, "-eviction"},
		// Hours lie within the run's horizon, (days + 3) × 24: no table sized
		// by a wait, no overflowed duration.
		{[]string{"-w", "6x1e15"}, "-w"},
		{[]string{"-w", "infx24"}, "-w"},
		{[]string{"-w", "6x1e300"}, "-w"},
		{[]string{"-w", "-1x24"}, "-w"},
		{[]string{"-w", "6x241", "-days", "7"}, "-w"},
		{[]string{"-spot-max", "nan"}, "-spot-max"},
		{[]string{"-spot-max", "1e7"}, "-spot-max"},
		{[]string{"-spot-max", "2", "-checkpoint", "inf"}, "-checkpoint"},
		// Suspend-resume plans cannot be work-conserving.
		{[]string{"-policy", "wait-awhile", "-work-conserving"}, "-work-conserving"},
	}
	for i, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d (%v): err = %v, want an error containing %q", i, c.args, err, c.want)
		}
	}
}

// ranCell is one run gaia-sim simulated.
type ranCell struct {
	cfg  core.Config
	jobs *workload.Trace
}

// runCells runs gaia-sim with args and returns every run it simulated.
func runCells(t *testing.T, args ...string) []ranCell {
	t.Helper()
	var cells []ranCell
	defer func(orig func(core.Config, *workload.Trace) (*metrics.Result, error)) { simulate = orig }(simulate)
	simulate = func(cfg core.Config, jobs *workload.Trace) (*metrics.Result, error) {
		cells = append(cells, ranCell{cfg, jobs})
		return core.Run(cfg, jobs)
	}
	if err := run(args); err != nil {
		t.Fatalf("gaia-sim %v: %v", args, err)
	}
	return cells
}

// TestParseWaits: -w reads SHORTxLONG hours into the paper's two queues,
// and 0 is no waiting, not the default.
func TestParseWaits(t *testing.T) {
	for _, c := range []struct {
		w    string
		want workload.QueueLadder
	}{
		{"6x24", workload.PaperQueues(6*simtime.Hour, 24*simtime.Hour)},
		{"0x12", workload.PaperQueues(0, 12*simtime.Hour)},
		{"1.5X0", workload.PaperQueues(90*simtime.Minute, 0)},
	} {
		cells := runCells(t, "-w", c.w, "-jobs", "20", "-days", "1")
		if got := cells[0].cfg.Queues; !slices.Equal(got, c.want) {
			t.Errorf("-w %s: queues %v, want %v", c.w, got, c.want)
		}
	}
	for _, w := range []string{"xx", "6", "6x", "x24", "6x24x1"} {
		if err := run([]string{"-w", w}); err == nil || !strings.Contains(err.Error(), "-w") {
			t.Errorf("-w %s: err = %v, want an error naming -w", w, err)
		}
	}
}

func writeTestTraces(t *testing.T, ciPath, wlPath string) {
	t.Helper()
	ci := "hour,carbon_intensity\n"
	for h := 0; h < 24*5; h++ {
		v := "300"
		if h%24 == 12 {
			v = "50"
		}
		ci += itoa(h) + "," + v + "\n"
	}
	if err := os.WriteFile(ciPath, []byte(ci), 0o644); err != nil {
		t.Fatal(err)
	}
	wl := "id,arrival_min,length_min,cpus,queue\n" +
		"0,0,60,1,short\n" +
		"1,30,300,2,long\n" +
		"2,120,90,1,short\n"
	if err := os.WriteFile(wlPath, []byte(wl), 0o644); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
