package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	wrtring "github.com/rtnet/wrtring"
)

// FuzzSubmitRequest fuzzes the POST /v1/runs request decoder: the strict
// SubmitRequest envelope plus per-item ParseScenario, exactly as
// HandleBatchSubmit validates a batch (decode-only — nothing is executed).
// Arbitrary bytes must never panic, and every scenario the validator admits
// must produce a stable content-addressed Key (the ID handed to clients and
// used for caching and cluster routing).
func FuzzSubmitRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"scenarios": [{"N": 10, "Seed": 1}]}`),
		[]byte(`{"scenarios": [{"N": 6, "Seed": 2, "Duration": 2000, "Sources": [{"Station": -1, "Kind": "cbr", "Class": "premium", "Period": 50, "Dest": {"kind": "opposite"}}]}]}`),
		[]byte(`{"scenarios": []}`),
		[]byte(`{"scenarios": [{"Bogus": 1}, {"N": 4}]}`),
		[]byte(`{"extra": true, "scenarios": [{"N": 4}]}`),
		[]byte(`{"scenarios": [null]}`),
		[]byte(`[]`),
		[]byte(``),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req SubmitRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		for _, raw := range req.Scenarios {
			s, err := wrtring.ParseScenario(raw)
			if err != nil {
				continue
			}
			key, err := Key(s)
			if err != nil {
				t.Fatalf("valid scenario has no key: %v\nscenario: %s", err, raw)
			}
			key2, err := Key(s)
			if err != nil || key2 != key {
				t.Fatalf("key is not deterministic: %q vs %q (err %v)", key, key2, err)
			}
		}
	})
}

// FuzzBatchRequest fuzzes the POST /v1/batches body decoder: a grid spec
// plus an optional index subset, outside input on a public endpoint.
// Arbitrary bytes must never panic. An accepted request has at least one
// point, its subset is non-empty, ascending, unique and inside the grid, and
// decode → encode → decode is a fixpoint. Seeds live in
// testdata/fuzz/FuzzBatchRequest.
func FuzzBatchRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseBatchRequest(data)
		if err != nil {
			return
		}
		size := req.Grid.Size()
		if size < 1 || req.Expanded() < 1 {
			t.Fatalf("accepted a request of %d points (grid %d)", req.Expanded(), size)
		}
		for i, idx := range req.Indices {
			if idx < 0 || idx >= size || (i > 0 && idx <= req.Indices[i-1]) {
				t.Fatalf("accepted subset %v of a %d-point grid", req.Indices, size)
			}
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		again, err := ParseBatchRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("decode/encode is not a fixpoint (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}
