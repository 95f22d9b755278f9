package workloads

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"heapmd/internal/detect"
	"heapmd/internal/faults"
	"heapmd/internal/heapgraph"
	"heapmd/internal/logger"
	"heapmd/internal/metrics"
	"heapmd/internal/model"
)

// runWithConnectivity executes one logged run with the extended suite
// under the given connectivity mode.
func runWithConnectivity(t *testing.T, w Workload, in Input, mode heapgraph.ConnectivityMode, plan *faults.Plan) *logger.Report {
	t.Helper()
	rep, _, err := RunLogged(w, in, RunConfig{
		Plan: plan,
		Logger: logger.Options{
			Suite:        metrics.ExtendedSuite(),
			Connectivity: mode,
		},
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", w.Name(), mode, err)
	}
	return rep
}

// TestConnectivityModesByteIdenticalReports is the weak-connectivity
// differential sweep: every workload, run with the extended suite under
// incremental and verify connectivity, must produce byte-identical
// reports. Verify mode walks the graph at every metric point and
// panics mid-run on any divergence from the tracker, so this is an
// oracle sweep over all 13 workloads' allocation patterns.
func TestConnectivityModesByteIdenticalReports(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			in := w.Inputs(1)[0]
			base := runWithConnectivity(t, w, in, heapgraph.ConnectivityIncremental, nil)
			baseJSON, err := json.Marshal(base)
			if err != nil {
				t.Fatal(err)
			}
			rep := runWithConnectivity(t, w, in, heapgraph.ConnectivityVerify, nil)
			repJSON, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(baseJSON, repJSON) {
				t.Fatalf("verify report differs from incremental mode:\nincremental: %s\nverify:      %s",
					baseJSON, repJSON)
			}
		})
	}
}

// TestConnectivityModesIdenticalFindings closes the loop through the
// detector: a model trained on incremental-mode reports must yield
// identical findings when checking faulty runs executed under each
// connectivity mode.
func TestConnectivityModesIdenticalFindings(t *testing.T) {
	w, _ := Get("webapp")
	cfg := RunConfig{Logger: logger.Options{Suite: metrics.ExtendedSuite()}}
	training, err := Train(w, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, err := model.Build(training, model.Thresholds{})
	if err != nil {
		t.Fatal(err)
	}

	in := w.Inputs(2)[1]
	plan := func() *faults.Plan { return faults.NewPlan().EnableAlways(faults.TypoLeak) }
	base := runWithConnectivity(t, w, in, heapgraph.ConnectivityIncremental, plan())
	baseFindings := detect.CheckReport(built.Model, base, detect.Options{})
	rep := runWithConnectivity(t, w, in, heapgraph.ConnectivityVerify, plan())
	if findings := detect.CheckReport(built.Model, rep, detect.Options{}); !reflect.DeepEqual(baseFindings, findings) {
		t.Fatalf("verify findings differ from incremental mode:\nincremental: %v\nverify:      %v",
			baseFindings, findings)
	}
}

// runWithModes is runWithConnectivity with both component-metric modes
// under control.
func runWithModes(t *testing.T, w Workload, in Input, conn, scc heapgraph.ConnectivityMode, plan *faults.Plan) *logger.Report {
	t.Helper()
	rep, _, err := RunLogged(w, in, RunConfig{
		Plan: plan,
		Logger: logger.Options{
			Suite:        metrics.ExtendedSuite(),
			Connectivity: conn,
			SCC:          scc,
		},
	})
	if err != nil {
		t.Fatalf("%s/conn=%s,scc=%s: %v", w.Name(), conn, scc, err)
	}
	return rep
}

// TestSCCModesByteIdenticalReports is the strong-connectivity
// differential sweep: every workload, run with the extended suite
// fully incremental (both trackers), fully verified, and with only the
// SCCs metric verified, must produce byte-identical reports. The
// verify legs panic mid-run on any divergence of a tracker from its
// walk, so this is an oracle sweep of both incremental paths over all
// 13 workloads' allocation patterns.
func TestSCCModesByteIdenticalReports(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			in := w.Inputs(1)[0]
			inc, ver := heapgraph.ConnectivityIncremental, heapgraph.ConnectivityVerify
			base := runWithModes(t, w, in, inc, inc, nil)
			baseJSON, err := json.Marshal(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, modes := range [][2]heapgraph.ConnectivityMode{{ver, ver}, {inc, ver}} {
				rep := runWithModes(t, w, in, modes[0], modes[1], nil)
				repJSON, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(baseJSON, repJSON) {
					t.Fatalf("conn=%s scc=%s report differs from incremental mode:\nincremental: %s\ngot:         %s",
						modes[0], modes[1], baseJSON, repJSON)
				}
			}
		})
	}
}

// TestSCCModesIdenticalFindings closes the loop through the detector
// for the SCC tracker: a model trained on incremental-mode reports must
// yield identical findings when checking faulty runs executed with the
// SCC metric verified.
func TestSCCModesIdenticalFindings(t *testing.T) {
	w, _ := Get("webapp")
	cfg := RunConfig{Logger: logger.Options{Suite: metrics.ExtendedSuite()}}
	training, err := Train(w, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, err := model.Build(training, model.Thresholds{})
	if err != nil {
		t.Fatal(err)
	}

	in := w.Inputs(2)[1]
	plan := func() *faults.Plan { return faults.NewPlan().EnableAlways(faults.TypoLeak) }
	inc := heapgraph.ConnectivityIncremental
	base := runWithModes(t, w, in, inc, inc, plan())
	baseFindings := detect.CheckReport(built.Model, base, detect.Options{})
	rep := runWithModes(t, w, in, inc, heapgraph.ConnectivityVerify, plan())
	if findings := detect.CheckReport(built.Model, rep, detect.Options{}); !reflect.DeepEqual(baseFindings, findings) {
		t.Fatalf("scc=verify findings differ from incremental mode:\nincremental: %v\nverify:      %v",
			baseFindings, findings)
	}
}
