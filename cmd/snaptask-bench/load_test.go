package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"snaptask/internal/loadgen"
)

func TestCheckLoadGate(t *testing.T) {
	row := func(endpoint string, p99 float64) loadEndpointRow {
		return loadEndpointRow{Endpoint: endpoint, Corrected: loadgen.Quantiles{P99: p99}}
	}
	shard := func(name string) loadMultiRow {
		return loadMultiRow{Campaign: name, OfferedQPS: 62.5, AchievedQPS: 62.5,
			Endpoints: []loadEndpointRow{row("locate", 12)}}
	}
	// report returns a fresh report that passes the gate against itself,
	// rewritten by edit.
	report := func(edit func(r *loadReport)) *loadReport {
		r := &loadReport{
			Campaigns: []loadCampaignRow{
				{Name: "steady", OfferedQPS: 250, AchievedQPS: 248},
				{Name: "overload", Overload: true, OfferedQPS: 1000, AchievedQPS: 750, Shed: 4000},
			},
			Endpoints:   []loadEndpointRow{row("upload", 100), row("locate", 10), row("claim", 5)},
			Calibration: []loadEndpointRow{{Endpoint: "locate", ServerP99MS: 5, ServerAgree: ptr(true)}},
			SLOOverload: []loadSLORow{{Endpoint: "locate"}, {Endpoint: "upload", Burning: true}},
			MultiCampaign: &loadMultiReport{
				Campaigns: 4,
				Baseline: loadMultiRow{Campaign: "single", OfferedQPS: 250, AchievedQPS: 250,
					Endpoints: []loadEndpointRow{row("locate", 10)}},
				Rows: []loadMultiRow{shard("c0"), shard("c1"), shard("c2"), shard("c3")},
			},
		}
		edit(r)
		return r
	}
	committed := report(func(*loadReport) {})
	tests := []struct {
		name  string
		gate  *loadReport
		fresh *loadReport
		pass  bool
	}{
		{"unchanged", committed, report(func(*loadReport) {}), true},
		{"no committed baseline", nil, report(func(*loadReport) {}), true},
		{"steady at 0.9", committed, report(func(r *loadReport) { r.Campaigns[0].AchievedQPS = 225 }), true},
		{"steady below 0.9", committed, report(func(r *loadReport) { r.Campaigns[0].AchievedQPS = 224 }), false},
		{"overload shed nothing", committed, report(func(r *loadReport) { r.Campaigns[1].Shed = 0 }), false},
		{"no slo burn", committed, report(func(r *loadReport) { r.SLOOverload[1].Burning = false }), false},
		{"calibration disagrees", committed, report(func(r *loadReport) { r.Calibration[0].ServerAgree = ptr(false) }), false},
		{"calibration without server histogram", committed, report(func(r *loadReport) {
			r.Calibration[0] = loadEndpointRow{Endpoint: "locate"}
		}), true},
		{"multi-campaign phase missing", committed, report(func(r *loadReport) { r.MultiCampaign = nil }), false},
		{"multi-campaign phase missing without baseline", nil, report(func(r *loadReport) { r.MultiCampaign = nil }), true},
		{"multi-campaign 3 rows", committed, report(func(r *loadReport) { r.MultiCampaign.Rows = r.MultiCampaign.Rows[:3] }), false},
		{"multi-campaign baseline below 0.9", committed, report(func(r *loadReport) { r.MultiCampaign.Baseline.AchievedQPS = 224 }), false},
		{"multi-campaign shard below 0.9", committed, report(func(r *loadReport) { r.MultiCampaign.Rows[2].AchievedQPS = 56 }), false},
		// The shard bound is 1.25 × the in-phase single-campaign p99
		// (10 ms) + 50 ms = 62.5 ms.
		{"multi-campaign shard at bound", committed, report(func(r *loadReport) {
			r.MultiCampaign.Rows[3].Endpoints[0].Corrected.P99 = 62.5
		}), true},
		{"multi-campaign shard above bound", committed, report(func(r *loadReport) {
			r.MultiCampaign.Rows[3].Endpoints[0].Corrected.P99 = 62.6
		}), false},
		{"upload p99 at 2x", committed, report(func(r *loadReport) { r.Endpoints[0].Corrected.P99 = 200 }), true},
		{"upload p99 above 2x", committed, report(func(r *loadReport) { r.Endpoints[0].Corrected.P99 = 201 }), false},
		{"locate p99 above 2x", committed, report(func(r *loadReport) { r.Endpoints[1].Corrected.P99 = 20.1 }), false},
		// Only upload and locate are bounded against the committed file.
		{"claim p99 above 2x", committed, report(func(r *loadReport) { r.Endpoints[2].Corrected.P99 = 50 }), true},
		{"p99 above 2x without baseline", nil, report(func(r *loadReport) { r.Endpoints[0].Corrected.P99 = 500 }), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := checkLoadGate(tt.gate, tt.fresh)
			if tt.pass && err != nil {
				t.Errorf("gate failed: %v", err)
			}
			if !tt.pass && err == nil {
				t.Error("gate passed, want failure")
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }

// TestMergeEndpointRowsAgreeOnlyWhenBracketed checks that only rows
// bracketed against the server histogram report server_agree: the
// overload and multi-campaign rows, merged without routes, omit it
// rather than read as a disagreement.
func TestMergeEndpointRowsAgreeOnlyWhenBracketed(t *testing.T) {
	res := &loadgen.Result{Endpoints: map[string]*loadgen.EndpointStats{
		"locate": {Name: "locate"},
		"upload": {Name: "upload"},
	}}
	for _, st := range res.Endpoints {
		st.Done.Add(100)
		for i := 0; i < 100; i++ {
			st.Service.Record(7 * time.Millisecond)
			st.Corrected.Record(7 * time.Millisecond)
		}
	}
	routes := map[string]string{"locate": "POST /v1/locate"}
	bracketed := mergeEndpointRows([]*loadgen.Result{res}, routes, "", twoCampaignMetrics)
	if len(bracketed) != 2 || bracketed[0].Endpoint != "locate" || bracketed[0].ServerAgree == nil || !*bracketed[0].ServerAgree {
		t.Fatalf("bracketed locate row = %+v, want server_agree true", bracketed)
	}
	unbracketed := append(bracketed[1:], mergeEndpointRows([]*loadgen.Result{res}, nil, "", "")...)
	for _, row := range unbracketed {
		data, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if row.ServerAgree != nil || strings.Contains(string(data), "server_agree") {
			t.Errorf("row %s without a server bracket carries server_agree: %s", row.Endpoint, data)
		}
	}
}

func TestServerAgrees(t *testing.T) {
	// The server's p99 bucket is (10, 20] ms: the harness p99 must lie in
	// [10/2, 20*2+25] = [5, 65] ms.
	tests := []struct {
		name      string
		svc       float64
		low, high float64
		want      bool
	}{
		{"inside the bucket", 15, 10, 20, true},
		{"at the upper bound", 65, 10, 20, true},
		{"above the upper bound", 65.1, 10, 20, false},
		{"at the lower bound", 5, 10, 20, true},
		{"below the lower bound", 4.9, 10, 20, false},
		{"first bucket has no lower bound", 0.01, 0, 0.5, true},
		{"first bucket upper bound", 26, 0, 0.5, true},
		{"above the first bucket's bound", 26.1, 0, 0.5, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := serverAgrees(tt.svc, tt.low, tt.high); got != tt.want {
				t.Errorf("serverAgrees(%v, %v, %v) = %v, want %v", tt.svc, tt.low, tt.high, got, tt.want)
			}
		})
	}
}

// twoCampaignMetrics is an exposition in the shape the server exports
// with two campaigns: one series per campaign for the same route.
const twoCampaignMetrics = `# TYPE snaptask_http_request_duration_seconds histogram
snaptask_http_request_duration_seconds_bucket{campaign="default",route="POST /v1/locate",le="0.005"} 90
snaptask_http_request_duration_seconds_bucket{campaign="default",route="POST /v1/locate",le="0.01"} 100
snaptask_http_request_duration_seconds_bucket{campaign="default",route="POST /v1/locate",le="+Inf"} 100
snaptask_http_request_duration_seconds_bucket{campaign="default",route="POST /v1/photos",le="0.05"} 7
snaptask_http_request_duration_seconds_bucket{campaign="default",route="POST /v1/photos",le="+Inf"} 7
snaptask_http_request_duration_seconds_bucket{campaign="shard-1",route="POST /v1/locate",le="0.005"} 1
snaptask_http_request_duration_seconds_bucket{campaign="shard-1",route="POST /v1/locate",le="0.01"} 1
snaptask_http_request_duration_seconds_bucket{campaign="shard-1",route="POST /v1/locate",le="+Inf"} 500
# TYPE snaptask_requests_shed_total counter
snaptask_requests_shed_total{campaign="default",cause="rate_limit"} 40
snaptask_requests_shed_total{campaign="shard-1",cause="rate_limit"} 3
snaptask_requests_shed_total{campaign="shard-1",cause="queue_full"} 2
`

func TestParseBucketsReadsDefaultCampaign(t *testing.T) {
	inf := math.Inf(1)
	tests := []struct {
		route string
		want  []metricBucket
	}{
		{"POST /v1/locate", []metricBucket{{0.005, 90}, {0.01, 100}, {inf, 100}}},
		{"POST /v1/photos", []metricBucket{{0.05, 7}, {inf, 7}}},
		{"POST /v1/task/claim", nil},
	}
	for _, tt := range tests {
		t.Run(tt.route, func(t *testing.T) {
			got := parseBuckets(twoCampaignMetrics, tt.route)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("parseBuckets = %v, want %v", got, tt.want)
			}
		})
	}
	// Mixing in shard-1's slow series would put the p99 in +Inf.
	low, high, found := bucketP99(parseBuckets(twoCampaignMetrics, "POST /v1/locate"))
	if !found || low != 0.005 || high != 0.01 {
		t.Errorf("locate p99 bucket = (%v, %v] found=%v, want (0.005, 0.01]", low, high, found)
	}
	if got, want := parseShedCauses(twoCampaignMetrics), map[string]uint64{"rate_limit": 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseShedCauses = %v, want %v", got, want)
	}
}

// TestServerChildStop checks the child-process contract of the load
// harness: stop fails unless the child exits zero, reports a child that
// already exited, and is a no-op once the child is gone.
func TestServerChildStop(t *testing.T) {
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("no sh")
	}
	tests := []struct {
		name   string
		script string // prints a line once its INT trap is installed
		sig    os.Signal
		ok     bool
	}{
		{"graceful exit on SIGINT", `trap 'exit 0' INT; echo up; while :; do sleep 0.05; done`, os.Interrupt, true},
		{"non-zero exit on SIGINT", `trap 'exit 3' INT; echo up; while :; do sleep 0.05; done`, os.Interrupt, false},
		{"killed", `echo up; while :; do sleep 0.05; done`, os.Kill, false},
		{"exited non-zero before the signal", `echo up; exit 4`, os.Interrupt, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			cmd := exec.Command("sh", "-c", tt.script)
			cmd.Stdout = w
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			c := &serverChild{cmd: cmd, done: done}
			if _, err := bufio.NewReader(r).ReadString('\n'); err != nil {
				t.Fatalf("child never came up: %v", err)
			}
			if err := c.stop(tt.sig); (err == nil) != tt.ok {
				t.Errorf("stop(%v) = %v, want ok=%v", tt.sig, err, tt.ok)
			}
			if err := c.stop(os.Kill); err != nil {
				t.Errorf("second stop = %v, want a no-op", err)
			}
		})
	}
}
