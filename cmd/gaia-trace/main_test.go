package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateCarbonAndStats(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ci.csv")
	if err := run([]string{"-kind", "carbon", "-region", "SA-AU", "-hours", "100", "-o", out}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Fatalf("output missing: %v", err)
	}
	if err := run([]string{"-stats-carbon", out}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateWorkloadAndStats(t *testing.T) {
	dir := t.TempDir()
	for _, fam := range []string{"alibaba", "azure", "mustang", "poisson"} {
		out := filepath.Join(dir, fam+".csv")
		args := []string{"-kind", "workload", "-family", fam, "-days", "3", "-o", out}
		if fam != "poisson" { // a poisson workload's count follows -days
			args = append(args, "-jobs", "50")
		}
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if err := run([]string{"-stats-workload", out}); err != nil {
			t.Fatalf("%s stats: %v", fam, err)
		}
	}
}

func TestTraceErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // a fragment the error must contain
	}{
		{[]string{"-kind", "bogus"}, "bogus"},
		{[]string{"-kind", "carbon", "-region", "XX"}, "XX"},
		{[]string{"-kind", "workload", "-family", "bogus"}, "-family"},
		{[]string{"-kind", "workload", "-jobs", "0"}, "-jobs"},
		{[]string{"-kind", "workload", "-days", "0"}, "-days"},
		{[]string{"-kind", "workload", "-days", "4000000000000000"}, "-days"},
		{[]string{"-kind", "workload", "-family", "poisson", "-jobs", "50"}, "-jobs"},
		{[]string{"-stats-carbon", "/nonexistent.csv"}, "/nonexistent.csv"},
		{[]string{"-stats-workload", "/nonexistent.csv"}, "/nonexistent.csv"},
	}
	out := filepath.Join(t.TempDir(), "out.csv")
	for i, c := range cases {
		if err := run(append(c.args, "-o", out)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d (%v): err = %v, want an error containing %q", i, c.args, err, c.want)
		}
		// A rejected run writes no output file.
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("case %d (%v): left %s behind (%v)", i, c.args, out, err)
		}
	}
}
