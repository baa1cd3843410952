package serve

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/carbonsched/gaia/internal/policy/policytest"
)

// TestBorrowedPlansNotRetained holds the advise path to the borrowed-plan
// contract of policy.Decision. Both endpoints answer through adviseInto
// on one adviseScratch reused job after job (a batch's jobs, or the
// pooled scratch across /v1/advise requests), so deciding a stream of
// jobs that way with each suspend-resume policy wrapped in
// policytest.Clobbering — which overwrites the plan it last returned on a
// Context before that Context decides again — must render every verdict
// byte for byte as the bare policy does.
func TestBorrowedPlansNotRetained(t *testing.T) {
	s := newTestServer(t, Config{TraceDays: 3})
	var bare, clobbered adviseScratch // shared across policies, as the pool's are
	rng := rand.New(rand.NewSource(5))
	horizon := 3 * 24 * 60
	for _, tag := range []string{"wait-awhile", "wait-awhile-est", "ecovisor"} {
		req := AdviseBatchRequest{Policy: tag, Region: "SA-AU", Jobs: make([]AdviseJob, 60)}
		for i := range req.Jobs {
			req.Jobs[i] = AdviseJob{ArrivalMinute: int64(rng.Intn(horizon)), LengthMinutes: int64(5 + rng.Intn(30*60))}
		}
		target, bad, err := s.normalizeAdvise(&req)
		if err != nil {
			t.Fatalf("%s: normalize jobs[%d]: %v", tag, bad, err)
		}
		wrapped := target
		wrapped.pol = policytest.Clobber(target.pol)
		multiWindow := false
		for i := range req.Jobs {
			job := &req.Jobs[i]
			want, err := adviseInto(&target, job, &bare)
			if err != nil {
				t.Fatalf("%s: jobs[%d]: %v", tag, i, err)
			}
			wantBody := appendAdviseResponse(nil, want)
			got, err := adviseInto(&wrapped, job, &clobbered)
			if err != nil {
				t.Fatalf("%s: jobs[%d] through Clobbering: %v", tag, i, err)
			}
			if gotBody := appendAdviseResponse(nil, got); !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("%s: jobs[%d] through Clobbering:\n got  %s\n want %s", tag, i, gotBody, wantBody)
			}
			multiWindow = multiWindow || len(want.Plan) > 1
		}
		if !multiWindow {
			t.Errorf("%s: no advice ran in more than one window", tag)
		}
	}
}
