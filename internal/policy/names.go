package policy

import (
	"fmt"
	"sort"
	"strings"
)

// byTag maps the lower-case wire/CLI tag of every policy to its value.
// Tags are the stable external names (gaia-sim flags, scenario files, the
// serving API); Policy.Name returns the paper's display name instead.
var byTag = map[string]Policy{
	"nowait":          NoWait{},
	"allwait":         AllWait{},
	"lowest-slot":     LowestSlot{},
	"lowest-window":   LowestWindow{},
	"carbon-time":     CarbonTime{},
	"wait-awhile":     WaitAwhile{},
	"wait-awhile-est": WaitAwhileEst{},
	"ecovisor":        Ecovisor{},
	"critical-path":   CriticalPathShift{},
}

// ByName resolves a policy tag (case-insensitive) to its implementation.
// It is the single parsing point shared by the CLI tools and the serving
// API, so every surface accepts exactly the same tags.
func ByName(name string) (Policy, error) {
	if p, ok := byTag[strings.ToLower(name)]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
}

// PlansSuspendResume reports whether p may decide suspend-resume plans,
// which neither work conservation nor elastic managed jobs can run.
func PlansSuspendResume(p Policy) bool {
	switch p.(type) {
	case WaitAwhile, WaitAwhileEst, Ecovisor:
		return true
	}
	return false
}

// Names returns every accepted policy tag, sorted.
func Names() []string {
	out := make([]string, 0, len(byTag))
	for tag := range byTag {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// allocatorByTag maps the lower-case CLI tag of every elastic allocator to
// its value, mirroring byTag for policies.
var allocatorByTag = map[string]ElasticAllocator{
	"static-min":      StaticAlloc{},
	"greedy-marginal": GreedyMarginal{},
}

// AllocatorByName resolves an elastic-allocator tag (case-insensitive),
// the single parsing point for gaia-sim and experiment configuration.
func AllocatorByName(name string) (ElasticAllocator, error) {
	if a, ok := allocatorByTag[strings.ToLower(name)]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("policy: unknown allocator %q (have %v)", name, AllocatorNames())
}

// AllocatorNames returns every accepted allocator tag, sorted.
func AllocatorNames() []string {
	out := make([]string, 0, len(allocatorByTag))
	for tag := range allocatorByTag {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}
