package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestCallRoundtrip(t *testing.T) {
	args := []byte{1, 2, 3, 4, 5}
	p, err := AppendCall(nil, 42, 1500, "payment", args)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindCall || m.ID != 42 || m.DeadlineUs != 1500 || m.Proc != "payment" || !bytes.Equal(m.Args, args) {
		t.Fatalf("roundtrip mismatch: %+v", m)
	}
}

func TestResultRoundtrip(t *testing.T) {
	p, err := AppendResult(nil, 7, StatusAbort, 3, 5, 12, "lock conflict", []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindResult || m.ID != 7 || m.Status != StatusAbort ||
		m.Reason != 3 || m.Stage != 5 || m.Site != 12 ||
		m.Detail != "lock conflict" || string(m.Payload) != "xyz" {
		t.Fatalf("roundtrip mismatch: %+v", m)
	}
}

func TestStatusRoundtrip(t *testing.T) {
	m, err := Decode(AppendStatusReq(nil, 9))
	if err != nil || m.Kind != KindStatus || m.ID != 9 {
		t.Fatalf("status req: %+v err=%v", m, err)
	}
	m, err = Decode(AppendStatusResult(nil, 9, []byte(`{"ok":true}`)))
	if err != nil || m.Kind != KindStatusResult || m.ID != 9 || string(m.Payload) != `{"ok":true}` {
		t.Fatalf("status result: %+v err=%v", m, err)
	}
}

func TestDecodeRejects(t *testing.T) {
	call, _ := AppendCall(nil, 1, 0, "p", []byte("aa"))
	cases := []struct {
		name string
		p    []byte
	}{
		{"empty", nil},
		{"unknown kind", append([]byte{99}, make([]byte, 8)...)},
		{"truncated id", []byte{byte(KindCall), 1, 2}},
		{"truncated call", call[:len(call)-1]},
		{"trailing bytes", append(append([]byte{}, call...), 0)},
		{"status trailing", append(AppendStatusReq(nil, 1), 1)},
	}
	for _, c := range cases {
		if _, err := Decode(c.p); err == nil {
			t.Errorf("%s: decode accepted", c.name)
		}
	}
	// A call whose inner args length points past the payload must error,
	// not slice out of bounds.
	bad := []byte{byte(KindCall), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'p', 0xff, 0xff, 0xff, 0xff}
	if _, err := Decode(bad); err == nil {
		t.Error("oversized inner length accepted")
	}
}

func TestLongProcName(t *testing.T) {
	long := make([]byte, 256)
	if _, err := AppendCall(nil, 1, 0, string(long), nil); err == nil {
		t.Fatal("256-byte proc name accepted")
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	p, _ := AppendCall(nil, 3, 0, "q", []byte("hello"))
	if err := WriteFrame(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatalf("frame payload mismatch")
	}
}

func TestFrameLimits(t *testing.T) {
	if err := WriteFrame(io.Discard, nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame: %v", err)
	}
	// Oversized length prefix must error before reading (or allocating) the
	// body.
	if _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize prefix: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Truncated body is an io error, not a hang or panic.
	if _, err := ReadFrame(bytes.NewReader([]byte{5, 0, 0, 0, 'a'}), nil); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// countingWriter counts the Write calls a frame costs.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameOneWrite: a frame, prefix and payload, leaves in exactly one
// Write, so on a socket it costs one write syscall and one segment.
func TestWriteFrameOneWrite(t *testing.T) {
	for _, n := range []int{1, 9, 4096, MaxFrame} {
		payload := bytes.Repeat([]byte{7}, n)
		var w countingWriter
		if err := WriteFrame(&w, payload); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%d-byte payload: %d Writes, want 1", n, w.writes)
		}
		got, err := ReadFrame(&w.Buffer, nil)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload: read back %d bytes, err %v", n, len(got), err)
		}
	}
}

// FuzzFrameRoundtrip: arbitrary bytes through ReadFrame+Decode must error
// or roundtrip, never panic; and every well-formed message must survive
// encode→frame→read→decode intact.
func FuzzFrameRoundtrip(f *testing.F) {
	seed1, _ := AppendCall(nil, 1, 100, "payment", []byte{9, 9})
	seed2, _ := AppendResult(nil, 2, StatusOK, 0, 0, 0, "", []byte("r"))
	var fr1 bytes.Buffer
	_ = WriteFrame(&fr1, seed1)
	f.Add(fr1.Bytes())
	var fr2 bytes.Buffer
	_ = WriteFrame(&fr2, seed2)
	f.Add(fr2.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 0, byte(KindStatus)})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // malformed framing must just error
		}
		m, err := Decode(payload)
		if err != nil {
			return // malformed payload must just error
		}
		// Re-encode the decoded message; it must decode to the same thing.
		var re []byte
		switch m.Kind {
		case KindCall:
			re, err = AppendCall(nil, m.ID, m.DeadlineUs, m.Proc, m.Args)
		case KindResult:
			re, err = AppendResult(nil, m.ID, m.Status, m.Reason, m.Stage, m.Site, m.Detail, m.Payload)
		case KindStatus:
			re = AppendStatusReq(nil, m.ID)
		case KindStatusResult:
			re = AppendStatusResult(nil, m.ID, m.Payload)
		}
		if err != nil {
			t.Fatalf("re-encode of decoded msg failed: %v", err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", payload, re)
		}
	})
}
