package simserver

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hidisc/internal/experiments"
	"hidisc/internal/machine"
	"hidisc/internal/workloads"
)

const envelopeGolden = "testdata/job_envelope.golden"

// envelopeCase is one successful answer: a JobResponse, and the batch
// index it is sent under (-1 for a /v1/jobs body).
type envelopeCase struct {
	index int
	resp  JobResponse
}

// envelopeCases builds real test-scale measurements, each under every
// combination of the cached, stored and deduped flags, plus one
// successful batch item.
func envelopeCases(t *testing.T) []envelopeCase {
	t.Helper()
	r := experiments.NewRunner(workloads.ScaleTest)
	var cases []envelopeCase
	for _, j := range []struct {
		workload string
		arch     machine.Arch
	}{
		{"Pointer", machine.HiDISC},
		{"DM", machine.Superscalar},
		{"TC", machine.CPAP},
	} {
		m, err := r.Run(j.workload, j.arch, r.Hier)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		key := experiments.Job{Workload: j.workload, Arch: j.arch, Hier: r.Hier, Scale: workloads.ScaleTest}.Key()
		for flags := 0; flags < 8; flags++ {
			cases = append(cases, envelopeCase{-1, JobResponse{
				Key: key, Cached: flags&1 != 0, Stored: flags&2 != 0, Deduped: flags&4 != 0, Measurement: enc,
			}})
		}
	}
	batch := cases[len(cases)-1]
	batch.index = 27
	return append(cases, batch)
}

// jsonEnvelope is what json.Encoder writes for c: the reference the
// codec must match.
func jsonEnvelope(t *testing.T, c envelopeCase) []byte {
	t.Helper()
	var b bytes.Buffer
	var v any = c.resp
	if c.index >= 0 {
		r := c.resp
		v = BatchItem{Index: c.index, Key: r.Key, Cached: r.Cached, Stored: r.Stored, Deduped: r.Deduped, Measurement: r.Measurement}
	}
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// codecEnvelope is what the fronts write for c.
func codecEnvelope(c envelopeCase) []byte {
	if c.index >= 0 {
		return appendBatchItem(nil, c.index, c.resp)
	}
	return appendJobResponse(nil, c.resp)
}

// TestJobEnvelopeGolden pins the bytes of every successful job answer
// shape — each flag combination of a /v1/jobs body, and a /v1/batch
// success line — against a golden file made by json.Encoder. The codec
// the fronts use must write the same bytes, and ParseJobResponse must
// read every /v1/jobs body back to the response it encodes. Regenerate
// with HIDISC_UPDATE_GOLDEN=1 go test -run TestJobEnvelopeGolden ./internal/simserver.
func TestJobEnvelopeGolden(t *testing.T) {
	cases := envelopeCases(t)
	var ref, got bytes.Buffer
	for _, c := range cases {
		ref.Write(jsonEnvelope(t, c))
		body := codecEnvelope(c)
		got.Write(body)
		if c.index >= 0 {
			continue
		}
		back, err := ParseJobResponse(body)
		if err != nil {
			t.Fatalf("parsing %.80s: %v", body, err)
		}
		if back.Key != c.resp.Key || back.Cached != c.resp.Cached || back.Stored != c.resp.Stored ||
			back.Deduped != c.resp.Deduped || !bytes.Equal(back.Measurement, c.resp.Measurement) {
			t.Errorf("parsed %+v, want %+v", back, c.resp)
		}
	}
	if os.Getenv("HIDISC_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(envelopeGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(envelopeGolden, ref.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(envelopeGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []struct {
		name string
		out  []byte
	}{{"json.Encoder", ref.Bytes()}, {"codec", got.Bytes()}} {
		gotLines, wantLines := bytes.SplitAfter(enc.out, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
		if len(gotLines) != len(wantLines) {
			t.Fatalf("%s: %d encoded lines, golden has %d", enc.name, len(gotLines), len(wantLines))
		}
		for i := range gotLines {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Errorf("%s: line %d differs from the golden file\n--- got\n%s--- want\n%s", enc.name, i+1, gotLines[i], wantLines[i])
			}
		}
	}
}

// TestParseJobResponseRefuses lists bodies that are not the canonical
// envelope; each must be an error, never a response.
func TestParseJobResponseRefuses(t *testing.T) {
	for _, body := range []string{
		"",
		"{}",
		`{"key":"k","measurement":{}}`,      // no newline
		`{"key":"k","measurement":}` + "\n", // no measurement
		`{"key":"k","measurement":{"Cycles":1}` + "\n",                     // cut before the closing brace
		`{"key":"k","deduped":true,"cached":true,"measurement":{}}` + "\n", // field order
		`{"key":"k", "measurement":{}}` + "\n",                             // not compact
		`{"key":"a\"b","measurement":{}}` + "\n",                           // escaped quote
		`{"key":"a\u0041","measurement":{}}` + "\n",                        // escape sequence
		`{"key":"\u003c","measurement":{}}` + "\n",                         // HTML escape
		`{"key":"<&>","measurement":{}}` + "\n",                            // JSON would escape these
		"{\"key\":\"tab\t\",\"measurement\":{}}\n",                         // control character
		"{\"key\":\"\xc3\xa9\",\"measurement\":{}}\n",                      // non-ASCII
		`{"index":0,"key":"k","measurement":{}}` + "\n",                    // a batch line
		`{"key":"k","measurement":null}` + "\n",                            // not an object
	} {
		if r, err := ParseJobResponse([]byte(body)); err == nil {
			t.Errorf("accepted %q as %+v", body, r)
		}
	}
}

// FuzzJobEnvelope feeds arbitrary bodies to ParseJobResponse: it must
// never panic, and whatever it accepts must re-encode to exactly the
// body it read, so only the canonical envelope is ever accepted.
func FuzzJobEnvelope(f *testing.F) {
	golden, err := os.ReadFile(envelopeGolden)
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		if len(line) > 0 {
			f.Add(line)
		}
	}
	f.Add([]byte(`{"key":"k","measurement":{}}` + "\n"))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := ParseJobResponse(body)
		if err != nil {
			return
		}
		if again := appendJobResponse(nil, r); !bytes.Equal(again, body) {
			t.Fatalf("accepted %q but it re-encodes as %q", body, again)
		}
	})
}
