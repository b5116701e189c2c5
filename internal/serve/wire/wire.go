// Package wire is drtmr-serve's length-prefixed binary protocol: the frame
// codec shared by the server (internal/serve) and the Go client
// (internal/serve/client).
//
// A frame is a little-endian uint32 payload length followed by the payload;
// payload byte 0 is the message kind. All integers are little-endian. The
// four message kinds:
//
//	Call         kind=1 | id u64 | deadlineUs u32 | procLen u8  | proc | argLen u32 | args
//	Result       kind=2 | id u64 | status u8 | reason u8 | stage u8 | site u16 |
//	                      detailLen u16 | detail | payloadLen u32 | payload
//	Status       kind=3 | id u64
//	StatusResult kind=4 | id u64 | jsonLen u32 | json
//
// Result's reason/stage/site carry the engine's abort taxonomy
// (txn.AbortReason, stage codes, cluster site) over the wire verbatim, so a
// client sees exactly the attribution the abort matrix records. Decode is
// strict: short payloads, oversized lengths, unknown kinds, and trailing
// bytes all error — never panic — which FuzzFrameRoundtrip enforces.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind is a message kind (payload byte 0). Typed so switches over a decoded
// frame's kind are checked for exhaustiveness by the enumswitch analyzer.
type Kind uint8

// Message kinds.
const (
	KindCall         Kind = 1
	KindResult       Kind = 2
	KindStatus       Kind = 3
	KindStatusResult Kind = 4
)

// Result statuses.
const (
	StatusOK         uint8 = 0 // committed; Payload is the procedure's reply
	StatusAbort      uint8 = 1 // typed abort; Reason/Stage/Site/Detail set
	StatusBadRequest uint8 = 2 // unknown procedure or malformed args
	StatusError      uint8 = 3 // server-side failure outside the abort taxonomy
)

// MaxFrame bounds a frame payload. Large enough for any stored-procedure
// argument or status JSON; small enough that a malicious length prefix
// cannot make the reader allocate unbounded memory.
const MaxFrame = 1 << 20

// Errors returned by the codec. ErrFrameTooLarge and io errors come from the
// framing layer; ErrMalformed from payload decoding.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrMalformed     = errors.New("wire: malformed payload")
)

// Msg is a decoded payload. Kind selects which fields are meaningful (see
// the package comment's layout table).
type Msg struct {
	Kind Kind
	ID   uint64

	// Call fields.
	DeadlineUs uint32 // request deadline in microseconds (0 = none)
	Proc       string
	Args       []byte

	// Result fields.
	Status  uint8
	Reason  uint8 // txn.AbortReason
	Stage   uint8 // txn stage code
	Site    uint16
	Detail  string
	Payload []byte
}

func malformed(what string) error { return fmt.Errorf("%w: %s", ErrMalformed, what) }

// AppendCall appends a Call payload (unframed) to dst.
func AppendCall(dst []byte, id uint64, deadlineUs uint32, proc string, args []byte) ([]byte, error) {
	if len(proc) > 255 {
		return dst, malformed("procedure name over 255 bytes")
	}
	dst = append(dst, byte(KindCall))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, deadlineUs)
	dst = append(dst, uint8(len(proc)))
	dst = append(dst, proc...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(args)))
	dst = append(dst, args...)
	return dst, nil
}

// AppendResult appends a Result payload (unframed) to dst.
func AppendResult(dst []byte, id uint64, status, reason, stage uint8, site uint16, detail string, payload []byte) ([]byte, error) {
	if len(detail) > 1<<16-1 {
		detail = detail[:1<<16-1]
	}
	dst = append(dst, byte(KindResult))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, status, reason, stage)
	dst = binary.LittleEndian.AppendUint16(dst, site)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(detail)))
	dst = append(dst, detail...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return dst, nil
}

// AppendStatusReq appends a Status request payload (unframed) to dst.
func AppendStatusReq(dst []byte, id uint64) []byte {
	dst = append(dst, byte(KindStatus))
	return binary.LittleEndian.AppendUint64(dst, id)
}

// AppendStatusResult appends a StatusResult payload (unframed) to dst.
func AppendStatusResult(dst []byte, id uint64, json []byte) []byte {
	dst = append(dst, byte(KindStatusResult))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(json)))
	return append(dst, json...)
}

// reader is a bounds-checked cursor over a payload.
type reader struct {
	b   []byte
	off int
}

func (r *reader) u8() (uint8, bool) {
	if r.off >= len(r.b) {
		return 0, false
	}
	v := r.b[r.off]
	r.off++
	return v, true
}

func (r *reader) u16() (uint16, bool) {
	if r.off+2 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, true
}

func (r *reader) u32() (uint32, bool) {
	if r.off+4 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, true
}

func (r *reader) u64() (uint64, bool) {
	if r.off+8 > len(r.b) {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, true
}

func (r *reader) bytes(n int) ([]byte, bool) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, false
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, true
}

// Decode parses one payload. The returned Msg's byte/string fields alias
// payload; callers that retain them past the buffer's reuse must copy.
// Trailing bytes after a well-formed message are an error: a frame carries
// exactly one message.
func Decode(payload []byte) (Msg, error) {
	var m Msg
	if len(payload) > MaxFrame {
		return m, ErrFrameTooLarge
	}
	r := reader{b: payload}
	k, ok := r.u8()
	if !ok {
		return m, malformed("empty payload")
	}
	kind := Kind(k)
	m.Kind = kind
	if m.ID, ok = r.u64(); !ok {
		return m, malformed("truncated id")
	}
	switch kind {
	case KindCall:
		if m.DeadlineUs, ok = r.u32(); !ok {
			return m, malformed("truncated deadline")
		}
		n, ok := r.u8()
		if !ok {
			return m, malformed("truncated proc length")
		}
		p, ok := r.bytes(int(n))
		if !ok {
			return m, malformed("truncated proc name")
		}
		m.Proc = string(p)
		an, ok := r.u32()
		if !ok {
			return m, malformed("truncated args length")
		}
		if m.Args, ok = r.bytes(int(an)); !ok {
			return m, malformed("truncated args")
		}
	case KindResult:
		if m.Status, ok = r.u8(); !ok {
			return m, malformed("truncated status")
		}
		if m.Reason, ok = r.u8(); !ok {
			return m, malformed("truncated reason")
		}
		if m.Stage, ok = r.u8(); !ok {
			return m, malformed("truncated stage")
		}
		if m.Site, ok = r.u16(); !ok {
			return m, malformed("truncated site")
		}
		dn, ok := r.u16()
		if !ok {
			return m, malformed("truncated detail length")
		}
		d, ok := r.bytes(int(dn))
		if !ok {
			return m, malformed("truncated detail")
		}
		m.Detail = string(d)
		pn, ok := r.u32()
		if !ok {
			return m, malformed("truncated payload length")
		}
		if m.Payload, ok = r.bytes(int(pn)); !ok {
			return m, malformed("truncated payload bytes")
		}
	case KindStatus:
		// id only.
	case KindStatusResult:
		jn, ok := r.u32()
		if !ok {
			return m, malformed("truncated json length")
		}
		if m.Payload, ok = r.bytes(int(jn)); !ok {
			return m, malformed("truncated json")
		}
	default:
		return m, malformed(fmt.Sprintf("unknown kind %d", kind))
	}
	if r.off != len(payload) {
		return m, malformed(fmt.Sprintf("%d trailing bytes", len(payload)-r.off))
	}
	return m, nil
}

// BeginFrame appends a frame's length prefix, still unset, to dst. A writer
// that keeps its own buffer appends the payload behind it, then EndFrame,
// then one Write.
func BeginFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// EndFrame sets the length prefix of a frame BeginFrame began at frame[0].
// An empty or over-MaxFrame payload errors.
func EndFrame(frame []byte) error {
	n := len(frame) - 4
	if n <= 0 {
		return malformed("empty frame")
	}
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	return nil
}

// WriteFrame writes one length-prefixed frame in one Write, copying the
// payload behind the prefix.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := append(BeginFrame(make([]byte, 0, 4+len(payload))), payload...)
	if err := EndFrame(frame); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame into buf (grown as needed) and
// returns the payload slice. A zero or over-MaxFrame length prefix errors
// without reading the body, so a corrupt prefix cannot drive allocation.
// The length prefix is staged in buf too (a local array would escape
// through the io.Reader interface and cost one heap allocation per frame),
// so a read loop that recycles buf runs allocation-free at steady state.
// A connection passes a bufio.Reader: then a frame that has arrived whole
// costs one read syscall.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 {
		return nil, malformed("zero-length frame")
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
