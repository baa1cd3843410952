package experiments

import "testing"

// x08QuickTable is the recorded quick-scale x08 table.
const x08QuickTable = `Extension x08 — carbon-saving modalities on elastic jobs (SA-AU, Amdahl p=0.9)
modality              carbon(norm)  cpu·h(norm)  mean completion(h)
--------------------  ------------  -----------  ------------------
static-1 (NoWait)     1.000         1.000        6.731
temporal shift (k=1)  0.573         1.000        30.808
suspend-resume (k=1)  0.341         1.000        42.134
carbon-scaler (k≤8)   0.257         1.172        38.371
expectation: scaling saves the most carbon and completes faster than unit-width suspend-resume, paying extra CPU-hours (Amdahl inefficiency) — the energy-vs-carbon tension CarbonScaler navigates
`

// TestX08Pinned holds the quick x08 table to its recorded text: a change
// to the planner, its curve arithmetic or x08's job generation that moves
// a printed digit fails here.
func TestX08Pinned(t *testing.T) {
	out, err := runX08Scaling(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != x08QuickTable {
		t.Errorf("x08 quick table changed:\n got:\n%s\nwant:\n%s", got, x08QuickTable)
	}
}
