package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	in := &Packet{
		Type:    TypeParity,
		Session: 0xdeadbeef,
		Group:   42,
		Seq:     9,
		K:       7,
		Count:   3,
		Total:   100,
		Payload: []byte("shard bytes"),
	}
	wire, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != HeaderLen+len(in.Payload) {
		t.Fatalf("wire length %d", len(wire))
	}
	out, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Session != in.Session || out.Group != in.Group ||
		out.Seq != in.Seq || out.K != in.K || out.Count != in.Count || out.Total != in.Total {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestRoundTripV2(t *testing.T) {
	in := &Packet{
		Type:     TypeParity,
		Session:  0xdeadbeef,
		Group:    42,
		Seq:      9,
		K:        7,
		H:        5,
		Codec:    1,
		CodecArg: 3,
		Count:    3,
		Total:    100,
		Payload:  []byte("shard bytes"),
	}
	wire, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != HeaderLen+len(in.Payload) {
		t.Fatalf("wire length %d, want %d", len(wire), HeaderLen+len(in.Payload))
	}
	if wire[1] != Version {
		t.Fatalf("version byte %d, want %d", wire[1], Version)
	}
	out, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != in.H || out.Codec != in.Codec || out.CodecArg != in.CodecArg {
		t.Fatalf("h/codec fields mismatch: %+v vs %+v", out, in)
	}
	if out.Type != in.Type || out.Session != in.Session || out.Group != in.Group ||
		out.Seq != in.Seq || out.K != in.K || out.Count != in.Count || out.Total != in.Total {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestDecodeV2TooShort(t *testing.T) {
	wire := (&Packet{Type: TypeData}).MustEncode()
	for _, n := range []int{HeaderLen - 4, HeaderLen - 1} {
		if _, err := Decode(wire[:n]); !errors.Is(err, ErrTooShort) {
			t.Errorf("Decode(frame[:%d]) = %v, want ErrTooShort", n, err)
		}
	}
	if _, err := Decode(wire); err != nil {
		t.Fatalf("full header: %v", err)
	}
}

func TestDecodeCopiesPayload(t *testing.T) {
	in := &Packet{Type: TypeData, Payload: []byte{1, 2, 3}}
	wire := in.MustEncode()
	out, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	wire[HeaderLen] = 0xff
	if out.Payload[0] != 1 {
		t.Fatal("decoded payload aliases the wire buffer")
	}
}

func TestRoundTripQuick(t *testing.T) {
	err := quick.Check(func(typ uint8, sess, grp, total uint32, seq, k, cnt, h uint16, codec, codecArg byte, payload []byte) bool {
		ty := Type(typ%5) + 1
		if len(payload) >= MaxPayload {
			payload = payload[:MaxPayload-1]
		}
		in := &Packet{Type: ty, Session: sess, Group: grp, Seq: seq, K: k,
			Count: cnt, Total: total, H: h, Codec: codec, CodecArg: codecArg, Payload: payload}
		wire, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := Decode(wire)
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.Session == in.Session &&
			out.Group == in.Group && out.Seq == in.Seq && out.K == in.K &&
			out.Count == in.Count && out.Total == in.Total &&
			out.H == in.H &&
			out.Codec == in.Codec && out.CodecArg == in.CodecArg &&
			bytes.Equal(out.Payload, in.Payload)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := (&Packet{Type: TypeData, Payload: []byte("xy")}).MustEncode()

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"short", func(b []byte) []byte { return b[:HeaderLen-1] }, ErrTooShort},
		{"magic", func(b []byte) []byte { b[0] = 0; return b }, ErrBadMagic},
		{"version", func(b []byte) []byte { b[1] = 9; return b }, ErrBadVersion},
		{"v1", func(b []byte) []byte { b[1] = 1; return b }, ErrBadVersion},
		{"type zero", func(b []byte) []byte { b[2] = 0; return b }, ErrBadType},
		{"type high", func(b []byte) []byte { b[2] = 99; return b }, ErrBadType},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), good...)
		if _, err := Decode(tc.mut(buf)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := (&Packet{Type: TypeInvalid}).Encode(); !errors.Is(err, ErrBadType) {
		t.Errorf("invalid type: %v", err)
	}
	if _, err := (&Packet{Type: Type(99)}).Encode(); !errors.Is(err, ErrBadType) {
		t.Errorf("unknown type: %v", err)
	}
	big := &Packet{Type: TypeData, Payload: make([]byte, MaxPayload)}
	if _, err := big.Encode(); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize: %v", err)
	}
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeData: "DATA", TypeParity: "PARITY", TypePoll: "POLL",
		TypeNak: "NAK", TypeFin: "FIN", Type(77): "Type(77)",
	} {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}

func TestPacketString(t *testing.T) {
	s := (&Packet{Type: TypePoll, Group: 3, Count: 7}).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestMarshalToMatchesEncode(t *testing.T) {
	p := &Packet{Type: TypeParity, Session: 5, Group: 8, Seq: 21, K: 20,
		Count: 1, Total: 40, Payload: []byte("parity shard payload")}
	want := p.MustEncode()
	buf := make([]byte, p.EncodedLen()+8)
	n, err := p.MarshalTo(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != p.EncodedLen() {
		t.Fatalf("MarshalTo wrote %d bytes, want %d", n, p.EncodedLen())
	}
	if !bytes.Equal(buf[:n], want) {
		t.Fatal("MarshalTo and Encode disagree")
	}
}

func TestMarshalToErrors(t *testing.T) {
	p := &Packet{Type: TypeData, Payload: []byte("xy")}
	if _, err := p.MarshalTo(make([]byte, p.EncodedLen()-1)); !errors.Is(err, ErrTooShort) {
		t.Errorf("short dst: %v", err)
	}
	if _, err := (&Packet{Type: TypeInvalid}).MarshalTo(make([]byte, HeaderLen)); !errors.Is(err, ErrBadType) {
		t.Errorf("invalid type: %v", err)
	}
	big := &Packet{Type: TypeData, Payload: make([]byte, MaxPayload)}
	if _, err := big.MarshalTo(make([]byte, MaxPayload+HeaderLen)); !errors.Is(err, ErrOversize) {
		t.Errorf("oversize: %v", err)
	}
}

func TestMarshalToClearsFlags(t *testing.T) {
	buf := make([]byte, HeaderLen)
	for i := range buf {
		buf[i] = 0xff // dirty recycled frame
	}
	p := &Packet{Type: TypePoll, Count: 3}
	if _, err := p.MarshalTo(buf); err != nil {
		t.Fatal(err)
	}
	if buf[3] != 0 {
		t.Fatal("reserved flags byte not cleared on a recycled frame")
	}
}

// TestMarshalPathsZeroAlloc pins the zero-allocation contract of the
// in-place marshal and aliasing decode: the sender's frame-pool path
// depends on it (see core.Sender and DESIGN.md "Transmit pipeline").
func TestMarshalPathsZeroAlloc(t *testing.T) {
	payload := make([]byte, 1024)
	p := &Packet{Type: TypeData, Session: 1, Group: 2, Seq: 3, K: 20, Payload: payload}
	frame := make([]byte, p.EncodedLen())
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := p.MarshalTo(frame); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("MarshalTo allocates %.1f/op, want 0", avg)
	}
	// A recycled pool frame is larger than the packet; writing at an
	// offset into it must not allocate either.
	pooled := make([]byte, 2*p.EncodedLen())
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := p.MarshalTo(pooled[7:]); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("MarshalTo into a larger frame allocates %.1f/op, want 0", avg)
	}
	var dec Packet
	if avg := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(&dec, frame); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("DecodeInto allocates %.1f/op, want 0", avg)
	}
}

func TestDecodeIntoAliasesPayload(t *testing.T) {
	wire := (&Packet{Type: TypeData, Payload: []byte{1, 2, 3}}).MustEncode()
	var p Packet
	if err := DecodeInto(&p, wire); err != nil {
		t.Fatal(err)
	}
	wire[HeaderLen] = 0xee
	if p.Payload[0] != 0xee {
		t.Fatal("DecodeInto copied the payload; it must alias for the zero-alloc path")
	}
}
