package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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
		want string // a fragment the error must contain; "" checks only that it fails
	}{
		{[]string{"-policy", "bogus"}, ""},
		{[]string{"-w", "abc"}, ""},
		{[]string{"-region", "XX"}, ""},
		{[]string{"-family", "bogus"}, ""},
		{[]string{"-carbon", "/nonexistent/ci.csv"}, ""},
		{[]string{"-workload", "/nonexistent/wl.csv"}, ""},
		{[]string{"-eviction", "1.5", "-spot-max", "1"}, ""},
		// An empty workload is an error naming the flag, never an empty run.
		{[]string{"-jobs", "-5"}, "-jobs"},
		{[]string{"-jobs", "0"}, "-jobs"},
		{[]string{"-days", "0"}, "-days"},
		{[]string{"-days", "-1"}, "-days"},
		{[]string{"-runtime", "prototype", "-jobs", "0"}, "-jobs"},
	}
	for i, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d (%v): err = %v, want an error containing %q", i, c.args, err, c.want)
		}
	}
}

func TestParseWaits(t *testing.T) {
	q, err := parseWaits("6x24")
	if err != nil || !slices.Equal(q, workload.PaperQueues(6*simtime.Hour, 24*simtime.Hour)) {
		t.Errorf("parseWaits = %v, %v", q, err)
	}
	// 0 is no waiting, not the default.
	q, err = parseWaits("0x12")
	if err != nil || !slices.Equal(q, workload.PaperQueues(0, 12*simtime.Hour)) {
		t.Errorf("zero wait = %v, %v", q, err)
	}
	if _, err := parseWaits("xx"); err == nil {
		t.Error("malformed waits should error")
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
