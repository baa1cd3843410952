package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick from the rendered quick figures")

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig01", "fig02", "fig05", "fig06", "fig07", "fig08", "fig09",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "fig20",
		"x01-forecast", "x02-estimates", "x03-suspend", "x04-prototype",
		"x05-checkpoint", "x06-spatial", "x07-carbontax", "x08-scaling",
		"x09-elastic", "x10-dag",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig08")
	if err != nil || e.ID != "fig08" {
		t.Errorf("ByID = %+v, %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale names broken")
	}
}

// TestAllExperimentsRunQuick renders every figure at Quick scale and
// compares it byte for byte with its golden file, testdata/quick/<id>.txt
// (what gaia-exp -all -outdir writes). This doubles as the integration
// test of the whole stack (policies × cloud options × accounting): any
// change that moves a printed digit fails here. After an intended
// change, rewrite the files with go test ./internal/experiments -update
// and review their diff.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			got := out.String()
			path := filepath.Join("testdata", "quick", e.ID+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s:\n got:\n%s\nwant:\n%s", e.ID, path, got, want)
			}
		})
	}
}
