package experiments

import (
	"testing"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/runcache"
	"github.com/carbonsched/gaia/internal/workload"
)

// The figure-level differentials. Each fast mechanism — the direct path,
// the timing wheel, streaming metrics, the elastic engine — replaced a
// reference one on the promise that no figure can tell them apart, so
// every registered figure must render byte-identically under both sides
// of each pair below. Each side is a cellOverride: runCells is the only
// place a figure simulates, so an override reaches every simulation of
// every figure. Pinned mechanisms and retained runs bypass the result and
// plan caches, so those sides always simulate end to end.

// pinMechanism returns an override that pins every cell to m.
func pinMechanism(m core.Mechanism) func(*cell) {
	return func(c *cell) { c.cfg.Mechanism = m }
}

// retainJobs turns per-job retention on for every cell.
func retainJobs(c *cell) { c.cfg.RetainJobs = true }

// wrapDegenerate wraps every rigid cell's workload in an all-degenerate
// ElasticTrace (flat curve, one replica, no edges), which engages no
// elastic machinery but moves the cell onto the elastic-aware engine
// configuration.
func wrapDegenerate(c *cell) {
	if c.cfg.Elastic == nil {
		c.cfg.Elastic = workload.Degenerate(c.jobs)
	}
}

// compareFigures renders every registered figure once under each
// override (nil leaves the cells as the figure built them) and fails the
// figures whose two renders differ.
func compareFigures(t *testing.T, refName string, ref func(*cell), altName string, alt func(*cell)) {
	t.Helper()
	if testing.Short() {
		t.Skip("renders the full quick-scale figure suite twice")
	}
	defer func() { cellOverride = nil }()
	render := func(t *testing.T, e Experiment, name string, override func(*cell)) string {
		t.Helper()
		cellOverride = override
		out, err := e.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return out.String()
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			want := render(t, e, refName, ref)
			if got := render(t, e, altName, alt); got != want {
				t.Errorf("figure differs:\n--- %s ---\n%s\n--- %s ---\n%s", refName, want, altName, got)
			}
		})
	}
}

// TestFiguresIdenticalAcrossRunPaths: Run's own choice (the direct path
// where eligible) against the event engine for every cell.
func TestFiguresIdenticalAcrossRunPaths(t *testing.T) {
	compareFigures(t, "direct", nil, "engine", pinMechanism(core.MechanismEngine))
}

// TestFiguresIdenticalAcrossEventQueues: the timing wheel against the
// reference heap queue, both pinned to the event engine — unpinned, the
// wheel side would ride the direct path and never touch the wheel.
func TestFiguresIdenticalAcrossEventQueues(t *testing.T) {
	compareFigures(t, "wheel", pinMechanism(core.MechanismEngine), "heap", pinMechanism(core.MechanismHeapEngine))
}

// TestFiguresIdenticalAcrossRetentionModes: the default streaming
// accumulator against full per-job retention.
func TestFiguresIdenticalAcrossRetentionModes(t *testing.T) {
	compareFigures(t, "streaming", nil, "retained", retainJobs)
}

// TestFiguresIdenticalElasticDegenerate pins the elastic machinery's
// degenerate contract against the whole figure suite: with every rigid
// cell wrapped in a degenerate ElasticTrace, every figure must still
// render byte-identically to the rigid render — with the cache disabled,
// with a cache set, and rigid again against the cache the wrapped cells
// warmed. Wrapped cells hash under elastic keys, so the last pass proves
// a rigid cell is never answered by a wrapped cell's entry. This is the
// figure-level face of the core package's degenerate differential: jobs
// whose contract is rigid must be untouchable by the elastic path.
func TestFiguresIdenticalElasticDegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full quick-scale figure suite four times")
	}
	prev := ActiveCache()
	defer SetCache(prev)
	defer func() { cellOverride = nil }()

	SetCache(nil)
	want := renderAll(t, "rigid, cache off")

	compare := func(label string, got map[string]string) {
		t.Helper()
		for id, text := range want {
			if got[id] != text {
				t.Errorf("%s: %s differs from rigid render:\n--- rigid ---\n%s\n--- %s ---\n%s",
					id, label, text, label, got[id])
			}
		}
	}

	cellOverride = wrapDegenerate
	compare("degenerate wrap, cache off", renderAll(t, "degenerate wrap, cache off"))

	SetCache(runcache.New())
	compare("degenerate wrap, cache on", renderAll(t, "degenerate wrap, cache on"))

	cellOverride = nil
	compare("rigid, warm cache", renderAll(t, "rigid, warm cache"))
}
