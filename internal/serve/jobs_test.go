package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// servedJobBodies are the /v1/simulate bodies whose canonical jobs are
// pinned by testdata/served_jobs_golden.txt: every axis at its default,
// spelled out explicitly and set to a non-default value, partial message
// geometry, explicit phases, a technology override and replications with
// and without an explicit seed.
var servedJobBodies = []string{
	`{"org":"m=4:2x1,2x2","lambda":0.0005}`,
	`{"org":"org1","lambda":0.0003}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"pattern":"uniform","routing":"balanced","arrival":"poisson","sizes":"fixed","links":"uniform","topo":"fattree"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"arrival":"poisson"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"sizes":"fixed"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"pattern":"uniform"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"topo":"fattree"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"topo":"fattree+fattree"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"pattern":"hotspot:0.1"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"pattern":"cluster-local:0.6"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"routing":"random-up"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"arrival":"mmpp:8:16"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"sizes":"bimodal:8:64:0.25"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"links":"icn2=0.04/0.02/0.004+conc=0.03/0.015/0.004"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"topo":"jellyfish+dragonfly"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"pattern":"hotspot:0.1","routing":"random-up","arrival":"mmpp:8:16","sizes":"bimodal:8:64:0.25","links":"icn2=0.04/0.02/0.004+conc=0.03/0.015/0.004","topo":"jellyfish+dragonfly"}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"flits":64}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"flit_bytes":512}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"flits":16,"flit_bytes":128}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"warmup":100,"measure":1000,"drain":100}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"measure":1000}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"tech":{"alpha_net":0.03,"alpha_sw":0.015,"beta_net":0.004}}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"rep":3}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"rep":3,"seed":42}`,
	`{"org":"m=4:2x1,2x2","lambda":0.0005,"seed":42}`,
	`{"org":"m=4@icn2topo=dragonfly:2x1@topo=jellyfish,2x2","lambda":0.0005,"model":"paper-literal"}`,
}

// TestServedJobIdentityGolden pins the job a served request becomes: its
// cache key, its simulator seed and every field, so a change to how
// requests are canonicalized cannot silently move a served job off the
// cache entry a sweep of the same point writes. Regenerate with
// -update-golden.
func TestServedJobIdentityGolden(t *testing.T) {
	var got bytes.Buffer
	for _, body := range servedJobBodies {
		var req jobRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		j, err := req.toJob()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		fmt.Fprintf(&got, "%s\n\tkey %s seed %d\n\t%#v\n", body, j.Key(), j.SimSeed, j)
	}
	checkGolden(t, "served_jobs_golden.txt", got.Bytes())
}

// TestHugeClusterCountRejectedCheaply: an organization of two billion
// clusters, a 40-byte body, gets a 400 naming the ICN2 from every route
// that materializes organizations, in allocation that does not grow with
// the count.
func TestHugeClusterCountRejectedCheaply(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, instantOutcome)
	for _, tc := range []struct{ path, body string }{
		{"/v1/analyze", `{"org":"m=4:2000000000x1","lambda":0.0003}`},
		{"/v1/simulate", `{"org":"m=4:2000000000x1","lambda":0.0003}`},
		{"/v1/compare", `{"org":"m=4:2000000000x1","lambda":0.0003}`},
		{"/v1/sweep", `{"orgs":["m=4:2000000000x1"],"loads":{"lambdas":[0.0003]}}`},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := do(t, s, "POST", tc.path, tc.body)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "ICN2") {
			t.Errorf("%s: status %d, want a 400 naming the ICN2: %s", tc.path, w.Code, w.Body)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("%s: allocated %d bytes before the rejection", tc.path, b)
		}
	}
}
