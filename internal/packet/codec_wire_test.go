package packet

import (
	"bytes"
	"testing"
)

// TestCodecIDRoundTripV2 round-trips a frame for every registered codec
// identity through each marshal/decode pairing: the codec id/arg bytes are
// part of the TG contract and must survive any path combination.
func TestCodecIDRoundTripV2(t *testing.T) {
	ids := []struct {
		codec, arg uint8
	}{
		{CodecRS, 0},
		{CodecRect, 3},
		{CodecRect, 12},
		{0xFF, 0xFF}, // ids are opaque at this layer: future codecs must transit
	}
	for _, id := range ids {
		for _, typ := range []Type{TypeData, TypeParity, TypeNcRepair} {
			p := Packet{
				Type: typ, Session: 9, Group: 4, Seq: 2,
				K: 12, H: 3, Total: 40, Codec: id.codec, CodecArg: id.arg,
				Payload: bytes.Repeat([]byte{0x5A}, NcMaskLen+4),
			}
			wire := p.MustEncode()
			got, err := Decode(wire)
			if err != nil {
				t.Fatalf("codec (%d,%d) %v: %v", id.codec, id.arg, typ, err)
			}
			if got.Codec != id.codec || got.CodecArg != id.arg {
				t.Errorf("%v: codec (%d,%d) decoded as (%d,%d)", typ, id.codec, id.arg, got.Codec, got.CodecArg)
			}
			var alias Packet
			if err := DecodeInto(&alias, wire); err != nil || alias.Codec != id.codec || alias.CodecArg != id.arg {
				t.Errorf("%v: DecodeInto codec (%d,%d) -> (%d,%d), err %v", typ, id.codec, id.arg, alias.Codec, alias.CodecArg, err)
			}
			frame := make([]byte, p.EncodedLen())
			if n, err := p.MarshalTo(frame); err != nil || !bytes.Equal(frame[:n], wire) {
				t.Errorf("%v: MarshalTo disagrees with Encode (err %v)", typ, err)
			}
		}
	}
}
