package rse

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorruptPayload is returned by Join when the length header of a split
// payload is inconsistent with the shard data.
var ErrCorruptPayload = errors.New("rse: corrupt payload length header")

// Split slices a message into k data shards of equal size, padding the tail
// with zeros. The original length is recorded in a 4-byte prefix so Join
// can recover the exact message. shardSize is derived from the message; use
// SplitSized to force a fixed shard (packet) size.
func Split(msg []byte, k int) ([][]byte, error) {
	if k < 1 {
		return nil, fmt.Errorf("rse: Split with k = %d", k)
	}
	total := len(msg) + 4
	shardSize := (total + k - 1) / k
	if shardSize == 0 {
		shardSize = 1
	}
	return SplitSized(msg, k, shardSize)
}

// SplitSized slices a message into exactly k shards of shardSize bytes,
// zero padded, with a 4-byte length prefix. It fails if the message plus
// prefix does not fit in k*shardSize bytes.
func SplitSized(msg []byte, k, shardSize int) ([][]byte, error) {
	if k < 1 || shardSize < 1 {
		return nil, fmt.Errorf("rse: SplitSized(k=%d, shardSize=%d)", k, shardSize)
	}
	if len(msg)+4 > k*shardSize {
		return nil, fmt.Errorf("rse: message of %d bytes does not fit %d shards of %d bytes",
			len(msg), k, shardSize)
	}
	buf := make([]byte, k*shardSize)
	binary.BigEndian.PutUint32(buf, uint32(len(msg)))
	copy(buf[4:], msg)
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = buf[i*shardSize : (i+1)*shardSize]
	}
	return shards, nil
}

// Join reassembles the message produced by Split/SplitSized from the k data
// shards (all must be present and equal length).
func Join(shards [][]byte) ([]byte, error) {
	if len(shards) == 0 {
		return nil, ErrBadShardCount
	}
	size := -1
	for _, s := range shards {
		if s == nil {
			return nil, ErrTooFewShards
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return nil, ErrShardSize
		}
	}
	buf := make([]byte, 0, len(shards)*size)
	for _, s := range shards {
		buf = append(buf, s...)
	}
	if len(buf) < 4 {
		return nil, ErrCorruptPayload
	}
	n := binary.BigEndian.Uint32(buf)
	if int(n) > len(buf)-4 {
		return nil, ErrCorruptPayload
	}
	return buf[4 : 4+n], nil
}
