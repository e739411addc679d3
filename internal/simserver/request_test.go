package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"reflect"
	"testing"

	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/simfault"
	"hidisc/internal/workloads"
)

// fixedShapeRequests spans the requests AppendJobRequest writes
// directly: every architecture and scale, with no hierarchy and with
// HierJSON's at the Table 1 defaults and at changed latencies, each
// with and without a time budget.
func fixedShapeRequests() []JobRequest {
	hiers := []json.RawMessage{
		nil,
		HierJSON(mem.DefaultHierConfig()),
		HierJSON(mem.DefaultHierConfig().WithLatencies(40, 376)),
	}
	var out []JobRequest
	for _, arch := range machine.Arches {
		for _, scale := range []string{"", "test", "paper"} {
			for _, hier := range hiers {
				for _, timeout := range []int64{0, 500} {
					out = append(out, JobRequest{Workload: "Pointer", Arch: arch, Hier: hier, Scale: scale, TimeoutMs: timeout})
				}
			}
		}
	}
	return out
}

// TestJobRequestBytes requires AppendJobRequest to write what
// json.Marshal writes: directly for every fixed-shape request, and
// through json.Marshal for a fault, a string JSON escapes, an
// architecture not spelled as in machine.Arches, or a hierarchy not in
// HierJSON's shape. Each direct encoding must read back, by the fixed
// shape, to the request it encodes. A request json.Marshal refuses is
// refused with its error.
func TestJobRequestBytes(t *testing.T) {
	unnamed := mem.DefaultHierConfig()
	unnamed.L1D.Name, unnamed.L2.Name = "", ""
	direct := append(fixedShapeRequests(),
		JobRequest{Workload: "", Arch: machine.CPAP, TimeoutMs: -3},
		JobRequest{Workload: "DM", Arch: machine.CPCMP, Hier: HierJSON(unnamed)},
	)
	fallback := []JobRequest{
		{Workload: "Pointer", Arch: machine.HiDISC, Fault: &simfault.Injector{Seed: 1}},
		{Workload: "<DM>", Arch: machine.HiDISC},
		{Workload: "DM", Arch: "HiDISC"},
		{Workload: "DM", Arch: machine.HiDISC, Scale: "tést"},
		{Workload: "DM", Arch: machine.HiDISC, Hier: json.RawMessage(`{"l2":{"latency":40}}`)},
		{Workload: "DM", Arch: machine.HiDISC, Hier: json.RawMessage(`{ "l1d":{}}`)},
		{Workload: "DM", Arch: machine.HiDISC, Hier: append(HierJSON(mem.DefaultHierConfig()), ' ')},
	}
	for _, arch := range []machine.Arch{"", "nope", "hi\"disc"} {
		jr := JobRequest{Workload: "DM", Arch: arch}
		_, want := json.Marshal(jr)
		if _, err := AppendJobRequest(nil, jr); err == nil || err.Error() != want.Error() {
			t.Errorf("arch %q: error %v, json.Marshal's %v", arch, err, want)
		}
	}
	for _, c := range []struct {
		jrs    []JobRequest
		direct bool
	}{{direct, true}, {fallback, false}} {
		for _, jr := range c.jrs {
			want, err := json.Marshal(jr)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendJobRequest([]byte("prefix"), jr)
			if err != nil {
				t.Fatalf("%+v: %v", jr, err)
			}
			if !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Errorf("AppendJobRequest wrote\n%s\njson.Marshal writes\n%s", got[len("prefix"):], want)
			}
			if jr.fixedShape() != c.direct {
				t.Errorf("%s: fixed shape %v, want %v", want, !c.direct, c.direct)
			}
			if !c.direct {
				continue
			}
			if back, ok := parseJobRequest(want); !ok || !sameRequest(back, jr) {
				t.Errorf("%s: fixed-shape reader gives %+v, %v", want, back, ok)
			}
		}
	}
}

// sameRequest compares the exported fields, the ones on the wire.
func sameRequest(a, b JobRequest) bool {
	return a.Workload == b.Workload && a.Arch == b.Arch && bytes.Equal(a.Hier, b.Hier) &&
		a.Scale == b.Scale && a.TimeoutMs == b.TimeoutMs && reflect.DeepEqual(a.Fault, b.Fault)
}

// TestCanonicalJobRedecodesReplacedHier checks that the hierarchy the
// fixed-shape reader decoded is dropped once Hier is replaced.
func TestCanonicalJobRedecodesReplacedHier(t *testing.T) {
	body, _ := AppendJobRequest(nil, JobRequest{Workload: "DM", Arch: machine.HiDISC, Hier: HierJSON(mem.DefaultHierConfig())})
	jr, ok := parseJobRequest(body)
	if !ok {
		t.Fatalf("fixed-shape reader refused %s", body)
	}
	jr.Hier = HierJSON(mem.DefaultHierConfig().WithLatencies(40, 376))
	job, err := jr.CanonicalJob(workloads.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if job.Hier.L2.Latency != 40 || job.Hier.MemLatency != 376 {
		t.Errorf("replaced hier decoded to %+v", job.Hier)
	}
}

// TestFrontLoggerDisabled requires the logger of a front built without
// one to report every level disabled, so no log line is formatted.
func TestFrontLoggerDisabled(t *testing.T) {
	f := NewFront(nil, Role{}, workloads.ScaleTest, nil, nil)
	defer f.ForceCancel()
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError, slog.LevelError + 100} {
		if f.Logger().Enabled(context.Background(), level) {
			t.Errorf("nil-logger front enables level %v", level)
		}
	}
}

// FuzzJobRequest feeds arbitrary bodies to the /v1/jobs decoder. It
// must never panic. A body the fixed-shape reader accepts must decode
// as encoding/json decodes it — the same request, canonical job, key
// and error — and re-encode to exactly that body.
func FuzzJobRequest(f *testing.F) {
	for _, jr := range fixedShapeRequests() {
		body, _ := AppendJobRequest(nil, jr)
		f.Add(body)
	}
	for _, body := range []string{
		`{"workload":"DM","arch":"hidisc"}{"workload":"TC"}`,
		`{"workload":"DM","arch":"hidisc","hier":{"l2":{"latncy":40}}}`,
		`{"workload":"DM","arch":"hidisc","hier":{"l1d":{"sets":0,"ways":4,"blockSize":32,"latency":1},"l2":{"sets":1024,"ways":4,"blockSize":64,"latency":12},"memLatency":-1}}`,
		`{"workload":"DM","arch":"nope","scale":"huge","timeoutMs":-5}`,
		`{"WORKLOAD":"DM","arch":"hidisc"}`,
		`{"workload":"DM","arch":"hidisc","fault":{"seed":1}} `,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeJobRequest(body)
		fast, ok := parseJobRequest(body)
		if !ok {
			return
		}
		if gotErr != nil || !sameRequest(got, fast) {
			t.Fatalf("decoder disagrees with the fixed-shape reader on %q: %+v, %v", body, got, gotErr)
		}
		var ref JobRequest
		if err := decodeJSON(body, &ref); err != nil {
			t.Fatalf("fixed-shape reader accepted %q, encoding/json refuses it: %v", body, err)
		}
		if !sameRequest(fast, ref) {
			t.Fatalf("%q: fixed-shape reader read %+v, encoding/json %+v", body, fast, ref)
		}
		fastJob, fastErr := fast.CanonicalJob(workloads.ScaleTest)
		refJob, refErr := ref.CanonicalJob(workloads.ScaleTest)
		if (fastErr == nil) != (refErr == nil) || (fastErr != nil && fastErr.Error() != refErr.Error()) {
			t.Fatalf("%q: CanonicalJob error %v, encoding/json path %v", body, fastErr, refErr)
		}
		if !reflect.DeepEqual(fastJob, refJob) || fastJob.Key() != refJob.Key() {
			t.Fatalf("%q: canonical job %+v, encoding/json path %+v", body, fastJob, refJob)
		}
		again, err := AppendJobRequest(nil, fast)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("accepted %q but it re-encodes as %q (%v)", body, again, err)
		}
		if back, _ := decodeJobRequest(again); fastErr == nil {
			if job, err := back.CanonicalJob(workloads.ScaleTest); err != nil || job.Key() != fastJob.Key() {
				t.Fatalf("%q: re-encoded request keys differently (%v)", body, err)
			}
		}
	})
}
