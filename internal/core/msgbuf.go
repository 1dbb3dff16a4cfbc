package core

import "unsafe"

// mallocgc is the runtime's allocator, which the runtime keeps linkable
// from outside packages. With a nil type and needzero false it returns size
// bytes of pointer-free memory without clearing them.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// poisonMsgBuf, when set, fills each new message buffer before the
// receiver writes into it. Tests set it so that a byte delivered without
// having been written shows.
var poisonMsgBuf func([]byte)

// newMsgBuf returns a message buffer of length and capacity size that the
// allocator does not zero-fill: every byte of the message it carries is
// written by a shard copy, a reconstruction, an NC repair or the delivery
// gather before delivery, and the tail past the message is never handed
// out (maybeComplete caps the delivered slice at its length).
func newMsgBuf(size int) []byte {
	b := unsafe.Slice((*byte)(mallocgc(uintptr(size), nil, false)), size)
	if poisonMsgBuf != nil {
		poisonMsgBuf(b)
	}
	return b
}
