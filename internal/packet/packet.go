// Package packet defines the wire format shared by the reliable-multicast
// protocols NP (hybrid ARQ with parity retransmission) and N2 (ARQ with
// original retransmission). One fixed 28-byte header covers every packet
// type; payload-bearing packets (DATA, PARITY, NCREPAIR) append their shard.
//
// Layout (big endian):
//
//	offset 0  : magic 'R' (0x52)
//	offset 1  : version (2)
//	offset 2  : type
//	offset 3  : flags (reserved, 0)
//	offset 4  : uint32 session id
//	offset 8  : uint32 group  — TG index (NP) or global sequence number (N2)
//	offset 12 : uint16 seq    — shard index inside the TG: data 0..k-1,
//	                            parities k..n-1 (NP); unused for N2.
//	                            POLL: the repair packets the sender's NAK
//	                            service had queued for the TG when it built
//	                            the POLL (0 on round 1's, at most 0xFFFE).
//	                            NAK: the seq of the latest POLL the
//	                            receiver heard for the TG, or 0xFFFF when
//	                            it answers none (a backoff retry)
//	offset 14 : uint16 k      — the TG's data-shard count
//	offset 16 : uint16 count  — POLL: packets sent in the finished round (s)
//	                            NAK:  packets still needed (l)
//	offset 18 : uint16 payload length
//	offset 20 : uint32 total  — FIN: number of TGs (NP) / packets (N2) in
//	                            the transfer. TG-scoped frames (DATA,
//	                            PARITY, NCREPAIR, POLL): the message's
//	                            source-shard count, ceil(message length /
//	                            shard size), which no re-cut moves and a
//	                            receiver sizes its reassembly buffer by;
//	                            0 = not stated
//	offset 24 : uint16 h      — the TG's parity budget; on a FIN, the
//	                            session's (0 when the sender renegotiates)
//	offset 26 : uint8  codec  — repair-code identifier (CodecRS,
//	                            CodecRect, ...)
//	offset 27 : uint8  codec arg — codec-specific parameter: 0 for RS,
//	                            the class count d for the rectangular code
//	offset 28 : payload
//
// Every TG header names its group's whole working point (k, h, codec), so a
// sender may renegotiate it between groups (see internal/adapt) and a
// receiver sizes each group's state from the wire alone. A NAK's echo lets
// the sender serve only what the repairs queued since that POLL do not
// already cover. A frame of any other version, the retired 24-byte version
// 1 included, is rejected: ErrBadVersion, or ErrTooShort when it is shorter
// than this header.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Type enumerates the protocol packet types.
type Type uint8

// Packet types.
const (
	TypeInvalid Type = iota
	TypeData         // an original data shard
	TypeParity       // a parity shard for a TG
	TypePoll         // sender solicits feedback for a TG round
	TypeNak          // receiver reports packets still needed
	TypeFin          // sender announces transfer size / end of new data

	// TypeNcRepair is a network-coded retransmission: the payload is an
	// 8-byte big-endian bitmap of the data seqs combined, followed by
	// their XOR. A receiver missing exactly one of the named shards
	// recovers it by XOR-ing out the ones it holds.
	TypeNcRepair Type = 6
)

// NcMaskLen is the length of the lost-shard bitmap prefix of an NCREPAIR
// payload and of the optional missing-data bitmap payload of a NAK.
const NcMaskLen = 8

// Codec identifiers carried by the TG header's codec byte.
const (
	// CodecRS is Reed-Solomon (Vandermonde, field chosen by k+h); its
	// codec arg is 0.
	CodecRS uint8 = 0
	// CodecRect is the XOR-only interleaved rectangular code
	// (internal/rect); its codec arg carries the class count d = h.
	CodecRect uint8 = 1
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeParity:
		return "PARITY"
	case TypePoll:
		return "POLL"
	case TypeNak:
		return "NAK"
	case TypeFin:
		return "FIN"
	case TypeNcRepair:
		return "NCREPAIR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Wire format constants.
const (
	Magic      = 0x52    // 'R'
	Version    = 2       // the one version this package speaks
	HeaderLen  = 28      // header bytes
	MaxPayload = 1 << 16 // payload length field is uint16; 65535 usable
)

// Decoding errors.
var (
	ErrTooShort   = errors.New("packet: buffer shorter than header")
	ErrBadMagic   = errors.New("packet: bad magic byte")
	ErrBadVersion = errors.New("packet: unsupported version")
	ErrBadType    = errors.New("packet: unknown packet type")
	ErrTruncated  = errors.New("packet: payload truncated")
	ErrOversize   = errors.New("packet: payload too large")
)

// Packet is the decoded form of a protocol packet. Group carries the TG
// index for NP and the global sequence number for N2.
type Packet struct {
	Type    Type
	Session uint32
	Group   uint32
	Seq     uint16
	K       uint16
	// Count is a POLL's slot span, the s its receivers slot their NAKs
	// by (the round size, or less once the sender has heard NAKs), and a
	// NAK's deficit l (always 1 on an N2 NAK). Other frames leave it 0.
	Count uint16
	// Total is the transfer's TG count (NP) or packet count (N2) on the
	// FIN, and the message's source-shard count on a TG-scoped frame. 0
	// states nothing.
	Total   uint32
	Payload []byte

	// H is the TG's parity budget; on a FIN, the session's.
	H uint16
	// Codec and CodecArg identify the repair code of a TG header:
	// CodecRS (arg 0) is Reed-Solomon (Vandermonde, field chosen by
	// k+h), CodecRect (arg d) the interleaved XOR rectangular code.
	Codec    uint8
	CodecArg uint8
}

// EncodedLen returns the wire size of p: the header plus payload.
func (p *Packet) EncodedLen() int { return HeaderLen + len(p.Payload) }

// MarshalTo encodes p into the beginning of dst, which must have room for
// EncodedLen() bytes, and returns the number of bytes written. It performs
// no allocation, so callers recycling wire frames through a free-list pay
// only the header stores and the payload copy.
func (p *Packet) MarshalTo(dst []byte) (int, error) {
	if p.Type == TypeInvalid || p.Type > TypeNcRepair {
		return 0, fmt.Errorf("%w: %d", ErrBadType, p.Type)
	}
	if len(p.Payload) >= MaxPayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrOversize, len(p.Payload))
	}
	n := HeaderLen + len(p.Payload)
	if len(dst) < n {
		return 0, fmt.Errorf("%w: need %d bytes, have %d", ErrTooShort, n, len(dst))
	}
	dst[0] = Magic
	dst[1] = Version
	dst[2] = byte(p.Type)
	dst[3] = 0
	binary.BigEndian.PutUint32(dst[4:], p.Session)
	binary.BigEndian.PutUint32(dst[8:], p.Group)
	binary.BigEndian.PutUint16(dst[12:], p.Seq)
	binary.BigEndian.PutUint16(dst[14:], p.K)
	binary.BigEndian.PutUint16(dst[16:], p.Count)
	binary.BigEndian.PutUint16(dst[18:], uint16(len(p.Payload)))
	binary.BigEndian.PutUint32(dst[20:], p.Total)
	binary.BigEndian.PutUint16(dst[24:], p.H)
	dst[26] = p.Codec
	dst[27] = p.CodecArg
	copy(dst[HeaderLen:], p.Payload)
	return n, nil
}

// Encode returns the wire encoding of p in a fresh buffer.
func (p *Packet) Encode() ([]byte, error) {
	b := make([]byte, p.EncodedLen())
	if _, err := p.MarshalTo(b); err != nil {
		return nil, err
	}
	return b, nil
}

// MustEncode is Encode panicking on error, for statically valid packets.
func (p *Packet) MustEncode() []byte {
	b, err := p.Encode()
	if err != nil {
		panic(err)
	}
	return b
}

// Decode parses a wire packet. The returned Packet owns a copy of the
// payload, so the input buffer may be reused by the caller.
func Decode(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := DecodeInto(p, b); err != nil {
		return nil, err
	}
	if len(p.Payload) > 0 {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	return p, nil
}

// DecodeInto parses a wire packet into p without allocating: p.Payload
// ALIASES b, so it is valid only while the caller keeps b intact. It is
// the zero-alloc decode entry point for engines that copy what they keep
// (a shard into a recycled buffer) and drop the rest, letting transports
// hand the same read buffer to every callback.
func DecodeInto(p *Packet, b []byte) error {
	if len(b) < HeaderLen {
		return fmt.Errorf("%w: %d bytes", ErrTooShort, len(b))
	}
	if b[0] != Magic {
		return fmt.Errorf("%w: %#x", ErrBadMagic, b[0])
	}
	if b[1] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, b[1])
	}
	t := Type(b[2])
	if t == TypeInvalid || t > TypeNcRepair {
		return fmt.Errorf("%w: %d", ErrBadType, b[2])
	}
	plen := int(binary.BigEndian.Uint16(b[18:]))
	if len(b) < HeaderLen+plen {
		return fmt.Errorf("%w: have %d, want %d", ErrTruncated, len(b)-HeaderLen, plen)
	}
	p.Type = t
	p.Session = binary.BigEndian.Uint32(b[4:])
	p.Group = binary.BigEndian.Uint32(b[8:])
	p.Seq = binary.BigEndian.Uint16(b[12:])
	p.K = binary.BigEndian.Uint16(b[14:])
	p.Count = binary.BigEndian.Uint16(b[16:])
	p.Total = binary.BigEndian.Uint32(b[20:])
	p.H = binary.BigEndian.Uint16(b[24:])
	p.Codec = b[26]
	p.CodecArg = b[27]
	p.Payload = nil
	if plen > 0 {
		p.Payload = b[HeaderLen : HeaderLen+plen : HeaderLen+plen]
	}
	return nil
}

// String renders a compact human-readable description for logging.
func (p *Packet) String() string {
	return fmt.Sprintf("%s sess=%d grp=%d seq=%d k=%d cnt=%d total=%d len=%d",
		p.Type, p.Session, p.Group, p.Seq, p.K, p.Count, p.Total, len(p.Payload))
}
