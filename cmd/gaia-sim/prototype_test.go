package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunPrototypeRuntime(t *testing.T) {
	err := run([]string{"-runtime", "prototype", "-policy", "carbon-time",
		"-jobs", "40", "-days", "2", "-reserved", "5"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPrototypeWithSpot(t *testing.T) {
	err := run([]string{"-runtime", "prototype", "-policy", "nowait",
		"-jobs", "40", "-days", "2", "-spot-max", "2", "-eviction", "0.2"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckpointFlag(t *testing.T) {
	err := run([]string{"-policy", "carbon-time", "-jobs", "40", "-days", "2",
		"-spot-max", "6", "-eviction", "0.2", "-checkpoint", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownRuntime(t *testing.T) {
	if err := run([]string{"-runtime", "bogus"}); err == nil {
		t.Error("unknown runtime should error")
	}
}

func TestRunPrototypeSuspendResumePolicies(t *testing.T) {
	for _, p := range []string{"wait-awhile", "ecovisor"} {
		err := run([]string{"-runtime", "prototype", "-policy", p,
			"-jobs", "10", "-days", "2", "-reserved", "3"})
		if err != nil {
			t.Errorf("%s on prototype: %v", p, err)
		}
	}
}

// A zero wait means no waiting on either runtime; suspend-resume plans
// must then run at once instead of failing plan validation.
func TestRunPrototypeZeroWaits(t *testing.T) {
	for _, w := range []string{"0x24", "0x0"} {
		err := run([]string{"-runtime", "prototype", "-policy", "ecovisor", "-w", w,
			"-jobs", "40", "-days", "2", "-reserved", "3"})
		if err != nil {
			t.Errorf("-w %s on prototype: %v", w, err)
		}
	}
}

func TestRunPrototypeRejectsUnsupportedFlags(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		flag string
		args []string
	}{
		{"-work-conserving", []string{"-work-conserving"}},
		{"-checkpoint", []string{"-spot-max", "2", "-eviction", "0.2", "-checkpoint", "0.5"}},
		{"-out", []string{"-out", filepath.Join(dir, "run")}},
		{"-db", []string{"-db", filepath.Join(dir, "acct.csv")}},
		{"-elastic-capacity", []string{"-elastic-capacity", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			args := append([]string{"-runtime", "prototype", "-jobs", "10", "-days", "2", "-reserved", "3"}, tc.args...)
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("err = %v, want an error naming %s", err, tc.flag)
			}
		})
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("rejected runs wrote %d files", len(files))
	}
}
