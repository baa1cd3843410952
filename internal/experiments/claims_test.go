package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsTableQuotesResults holds EXPERIMENTS.md's summary table
// to the record: every three-decimal number in a row's Measured column
// must appear in that figure's paper-scale output, results/figNN.txt.
// The column is typed by hand, and `make figures-check` pins results/,
// so a number the file does not contain has drifted from the record.
func TestExperimentsTableQuotesResults(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`^\| Fig (\d+) \|`)
	num := regexp.MustCompile(`\b\d+\.\d{3}\b`)
	rows := 0
	for _, line := range strings.Split(string(doc), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		// "| Fig N | claim | measured | verdict |" splits into six cells.
		cells := strings.Split(line, "|")
		if len(cells) != 6 {
			t.Fatalf("Fig %s row has %d columns, want 4: %s", m[1], len(cells)-2, line)
		}
		fig, _ := strconv.Atoi(m[1])
		name := fmt.Sprintf("fig%02d.txt", fig)
		out, err := os.ReadFile(filepath.Join(root, "results", name))
		if err != nil {
			t.Fatal(err)
		}
		have := map[string]bool{}
		for _, n := range num.FindAllString(string(out), -1) {
			have[n] = true
		}
		for _, n := range num.FindAllString(cells[3], -1) {
			if !have[n] {
				t.Errorf("EXPERIMENTS.md's Fig %d row quotes %s, which results/%s does not contain", fig, n, name)
			}
		}
	}
	if rows < 18 {
		t.Fatalf("found %d figure rows in EXPERIMENTS.md's summary table, want 18", rows)
	}
}
