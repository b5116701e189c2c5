package wire

import (
	"bytes"
	"testing"
)

// TestDecodeAllocFree pins the reader cursor and Decode's non-copying
// paths to zero allocations: a server's read loop decodes every inbound
// frame with the reader's accessors, and the returned Msg aliases the
// payload rather than copying it. (Call decoding converts the proc name to a
// string and is exempt — names are interned by the registry lookup on the
// server, and clients never decode Calls.)
func TestDecodeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}

	status := AppendStatusReq(nil, 9)
	result, err := AppendResult(nil, 7, StatusOK, 0, 0, 0, "", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	statusRes := AppendStatusResult(nil, 9, []byte(`{"ok":true}`))

	for _, c := range []struct {
		name string
		p    []byte
	}{
		{"Status", status},
		{"Result", result},
		{"StatusResult", statusRes},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := Decode(c.p); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Decode(%s) allocates %v times per call, want 0", c.name, allocs)
		}
	}
}

// TestReadFrameReusesBuffer pins the framing read path: with a buffer of
// sufficient capacity supplied, ReadFrame must not allocate.
func TestReadFrameReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	var framed bytes.Buffer
	if err := WriteFrame(&framed, AppendStatusReq(nil, 1)); err != nil {
		t.Fatal(err)
	}
	raw := framed.Bytes()
	buf := make([]byte, 64)
	rd := bytes.NewReader(raw)
	if allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(raw)
		if _, err := ReadFrame(rd, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadFrame with preallocated buffer allocates %v times per call, want 0", allocs)
	}
}
