package packet

import (
	"bytes"
	"testing"
)

// FuzzDecode checks that Decode never panics on arbitrary bytes and that
// everything it accepts re-encodes to an equivalent packet.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Packet{Type: TypeData, Payload: []byte("seed")}).MustEncode())
	f.Add((&Packet{Type: TypeFin, Total: 9, Payload: make([]byte, 8)}).MustEncode())
	f.Add([]byte{Magic, 1, byte(TypeNak), 0, 0, 0, 0, 1}) // a truncated version-1 NAK
	f.Add((&Packet{Type: TypeData, K: 8, H: 4, Payload: []byte("h seed")}).MustEncode())
	f.Add((&Packet{Type: TypeParity, K: 12, H: 10, Seq: 13, Codec: 1, CodecArg: 2}).MustEncode())
	f.Add((&Packet{Type: TypeData, K: 32, H: 4, Group: 2, Seq: 7, Total: 8192, // announces the source-shard count
		Payload: []byte("announced")}).MustEncode())
	f.Add([]byte{Magic, Version, byte(TypePoll), 0, 0, 0, 0, 1}) // header truncated below HeaderLen
	f.Add((&Packet{Type: TypeData, K: 20, H: 5, Seq: 3, Codec: CodecRect, CodecArg: 5,
		Payload: []byte("rect shard")}).MustEncode())
	ncPayload := append(make([]byte, NcMaskLen), []byte("nc combo")...)
	ncPayload[NcMaskLen-1] = 0b10101
	f.Add((&Packet{Type: TypeNcRepair, K: 8, H: 2, Codec: CodecRS, Total: 8,
		Payload: ncPayload}).MustEncode())
	// A POLL stating the repairs served so far, a NAK echoing it, and a
	// retry's NAK echoing none.
	f.Add((&Packet{Type: TypePoll, Group: 3, Seq: 7, K: 20, H: 20, Count: 4, Total: 400}).MustEncode())
	f.Add((&Packet{Type: TypeNak, Group: 3, Seq: 7, K: 20, Count: 2}).MustEncode())
	f.Add((&Packet{Type: TypeNak, Group: 3, Seq: 0xFFFF, K: 20, Count: 2,
		Payload: make([]byte, NcMaskLen)}).MustEncode())
	// A 24-byte version-1 header: rejected, never round-tripped.
	v1 := make([]byte, 24)
	v1[0], v1[1], v1[2] = Magic, 1, byte(TypeNak)
	f.Add(v1)
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		wire, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		p2, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if p.Type != p2.Type || p.Session != p2.Session || p.Group != p2.Group ||
			p.Seq != p2.Seq || p.K != p2.K || p.Count != p2.Count ||
			p.Total != p2.Total || p.H != p2.H ||
			p.Codec != p2.Codec || p.CodecArg != p2.CodecArg ||
			!bytes.Equal(p.Payload, p2.Payload) {
			t.Fatal("decode/encode/decode not idempotent")
		}

		// MarshalTo at an offset into a larger guard-filled buffer must
		// agree with Encode byte for byte and touch nothing outside its span.
		const off, tail = 2, 3
		frame := bytes.Repeat([]byte{0xAA}, off+p.EncodedLen()+tail)
		n, err := p.MarshalTo(frame[off:])
		if err != nil {
			t.Fatalf("MarshalTo failed on a decodable packet: %v", err)
		}
		if !bytes.Equal(frame[off:off+n], wire) {
			t.Fatal("MarshalTo output differs from Encode")
		}
		for i, c := range frame {
			if (i < off || i >= off+n) && c != 0xAA {
				t.Fatalf("MarshalTo wrote byte %d outside its span [%d, %d)", i, off, off+n)
			}
		}

		// The aliasing decode must agree with the copying one.
		var alias Packet
		if err := DecodeInto(&alias, wire); err != nil {
			t.Fatalf("DecodeInto rejected Decode-accepted bytes: %v", err)
		}
		if alias.Type != p2.Type || alias.Session != p2.Session || alias.Group != p2.Group ||
			alias.Seq != p2.Seq || alias.K != p2.K || alias.Count != p2.Count ||
			alias.Total != p2.Total || alias.H != p2.H ||
			alias.Codec != p2.Codec || alias.CodecArg != p2.CodecArg ||
			!bytes.Equal(alias.Payload, p2.Payload) {
			t.Fatal("DecodeInto and Decode disagree")
		}
	})
}
