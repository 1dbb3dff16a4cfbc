// Package core implements the paper's reliable multicast protocols as
// event-driven state machines:
//
//   - NP (Section 5.1): integrated FEC/ARQ. Data is sent in transmission
//     groups of k packets; after each round the sender polls the receivers,
//     which multicast slotted-and-damped NAKs carrying only the NUMBER of
//     packets they still miss; the sender answers a round's worst deficit l
//     with l Reed-Solomon parities, each of which can repair a different
//     loss at every receiver.
//   - N2 (Towsley/Kurose/Pingali): the ARQ-only baseline, which is NP at
//     k = 1 with no parities and no POLL (NewSenderN2, NewReceiverN2).
//     Receivers NAK the packets missing below the highest one seen, and
//     the sender re-multicasts the originals.
//
// The engines are single-threaded and environment-agnostic: they interact
// with the world only through the Env interface, implemented by
// *simnet.Node (deterministic virtual time, simulated loss) and by
// udpcast.Conn (real UDP multicast). All callbacks of one engine must be
// invoked serially.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rmfec/internal/adapt"
	"rmfec/internal/metrics"
	"rmfec/internal/rse"
)

// Env abstracts time, randomness and the multicast medium.
//
// Buffer ownership: the engines recycle their wire frames through a
// free-list, so b is valid only UNTIL the send call returns. A transport
// that defers delivery (a simulator scheduling an arrival, a queueing
// socket) must copy b before returning; it must never retain the slice.
// The same holds the other way for the packet a transport hands to
// HandlePacket. simnet's TestHandlerBufferIsBorrowed pins the medium's
// side, the core transfer tests (which run over simnet's recycled frames)
// and udpcast's TestNPTransferOverUDP the engines' side.
type Env interface {
	// Now returns the current time (virtual or wall-clock).
	Now() time.Duration
	// Multicast sends a data-plane packet to the session's group.
	Multicast(b []byte) error
	// MulticastControl sends a control packet (POLL/NAK/FIN). Transports
	// may treat control traffic preferentially; it is correct to implement
	// this as plain Multicast.
	MulticastControl(b []byte) error
	// After schedules fn once after d and returns a cancel function.
	After(d time.Duration, fn func()) (cancel func())
	// Rand returns the engine's private randomness (NAK slot jitter).
	Rand() *rand.Rand
}

// BatchEnv is an optional Env extension. A transport that can amortize
// per-send overhead across several datagrams implements MulticastBatch;
// the pipelined sender then hands it up to Pipeline.Batch consecutive
// data-plane frames per pacing tick instead of one. The frame ownership
// rule of Env.Multicast applies to every element: nothing may be retained
// after the call returns. Control packets never travel in batches, so
// per-plane accounting stays exact.
//
// MulticastBatch returns how many leading frames were handed to the
// medium before the first failure: sent == len(frames) and a nil error on
// full success; on error, frames[:sent] left and frames[sent:] did not.
// Callers use the count for exact per-frame error accounting across
// partial sends (sendmmsg can succeed for a prefix of a batch).
type BatchEnv interface {
	MulticastBatch(frames [][]byte) (sent int, err error)
}

// TickEnv is an optional Env extension for timers that are never
// cancelled. Tick schedules fn once after d, as After does, but returns no
// cancel, so a transport can arm it without allocating. The sender paces
// its queue and repeats its FIN through Tick when the env has it, and
// through After otherwise; the two give the same transcript. It is not a
// method of Env: a shim that embeds an Env to wrap After would have Tick
// promoted past it.
type TickEnv interface {
	Tick(d time.Duration, fn func())
}

// PipelineConfig tunes the sender's pipelined transmit stages. The zero
// value disables them: Depth = 0 runs the same sender with no worker pool
// and no batching, and is the reference every other setting must match
// byte for byte on the wire (TestSerialTranscriptGolden pins it against
// the pre-pipeline sender, TestPipelinedTranscriptMatchesSerial the rest).
type PipelineConfig struct {
	// Depth is the encode-ahead window in transmission groups: while TG i
	// is on the wire, parities of TGs up to i+Depth are being computed on
	// the worker pool. 0 disables both the worker pool and batching.
	Depth int
	// Workers is the encode worker-pool size; defaults to 2 when Depth > 0.
	Workers int
	// Batch caps how many consecutive data-plane frames are handed to the
	// transport per pacing tick (via BatchEnv when available). Defaults to
	// 32 when Depth > 0; 1 keeps per-packet pacing with the pipeline on.
	Batch int
}

// enabled reports whether any pipelined behaviour is configured.
func (p PipelineConfig) enabled() bool { return p.Depth > 0 }

// Config parameterises a transfer session. The zero value is not valid;
// fill in at least K and ShardSize, then call Validate (or rely on the
// constructors, which apply Defaults first).
type Config struct {
	Session   uint32 // session identifier carried in every packet
	K         int    // transmission group size (data packets per TG)
	MaxParity int    // h: parities encodable per TG; defaults to min(4*K, field limit)
	Proactive int    // a: parities multicast with round 1 before any NAK
	ShardSize int    // bytes per packet payload

	Delta       time.Duration // pacing between consecutive transmissions
	Ts          time.Duration // NAK slot width for slotting and damping
	RetryBase   time.Duration // receiver re-NAK timeout while unserved
	FinInterval time.Duration // gap between FIN repeats; never delays a repair round
	FinCount    int           // how many FINs the sender emits after data

	// Carousel selects the paper's "integrated FEC 1" variant: the
	// Proactive parities stream right behind the data with NO per-group
	// POLL; a receiver simply stops caring once it holds k packets. The
	// FIN still doubles as a poll, so residual losses beyond the proactive
	// budget are repaired by the normal NAK path as a backstop.
	Carousel bool
	// Adaptive selects the sender's EWMA redundancy policy: (K, MaxParity)
	// stay fixed, and the proactive count tracks an EWMA of the repair
	// deficits recent groups reported (starting at Proactive, capped at
	// MaxParity/2), so the sender learns the loss level and front-loads
	// roughly the right amount of redundancy.
	Adaptive bool
	// AdaptiveFEC selects the sender's ladder redundancy policy, the full
	// adaptive FEC control plane (internal/adapt): an online loss
	// estimator plus burst detector steering (k, h, a) through a
	// hysteresis ladder, renegotiated between transmission groups (every
	// TG header carries its group's k, h and codec id). K, MaxParity and
	// Proactive are derived from the ladder's initial rung; a retune
	// re-cuts the unstreamed remainder of the message at the new working
	// point. Mutually exclusive with Carousel and Adaptive — the
	// controller owns redundancy end to end. Both endpoints must
	// enable it: a static receiver admits only frames at its own (K,
	// MaxParity, RS) working point, and never the FIN of an adaptive
	// session, which states H = 0 at the initial rung's k: N2 (K = 1) is
	// the one static config with H = 0, so a ladder that starts at k = 1
	// would reach N2 receivers of its Session with its FIN.
	AdaptiveFEC bool
	// Adapt tunes the control plane; the zero value takes
	// adapt.DefaultConfig(). Sender and receivers must agree on the
	// ladder's maximum K and H (receivers bound per-group state by them).
	Adapt adapt.Config
	// CodecGate selects how the sender vets a non-default codec a ladder
	// rung requests: GateMeasure (default) admits it only when a parity
	// costs fewer shard passes than Reed-Solomon's at the same working
	// point, GateForce admits unconditionally and GateOff pins every era
	// to RS. Only consulted when AdaptiveFEC is on and a rung names a
	// codec other than RS.
	CodecGate int
	// NCRepair enables network-coded retransmission (Qureshi et al.):
	// NAKs carry the receiver's missing-data bitmap when the group
	// fits 64 shards, and the sender answers a repair round whose parity
	// budget is exhausted with XOR combinations of the specific lost
	// packets (NCREPAIR frames) instead of blind rotating resends. Both
	// endpoints must enable it; requires AdaptiveFEC.
	NCRepair bool
	// ObserveLag is how many transmission groups the sender waits before
	// closing a group's loss observation: group g's worst first-round NAK
	// deficit is sampled when group g+ObserveLag is cut, giving feedback
	// that long to arrive. Too small a lag under-counts slow NAKs (slot
	// delay, RTT); too large delays adaptation. Default 4.
	ObserveLag int
	// MaxGroups bounds the transfer size in transmission groups (NP) or
	// packets (N2). Receivers reject FIN/headers claiming more — without
	// a bound a hostile FIN could make a receiver allocate state for 2^32
	// groups. Default 1<<20.
	MaxGroups int
	// Pipeline configures the sender's pipelined transmit stages: parallel
	// encode-ahead of the proactive parities over the current era's groups,
	// and batched transmission. The engine marshals every frame either way.
	// It never changes a byte or the order of the wire transcript; the zero
	// value runs everything on the engine.
	Pipeline PipelineConfig
	// MaxNakSlots bounds the paper's NAK schedule [(s-l)Ts, (s-l+1)Ts], s
	// the slot span a POLL states. The formula assumes small rounds; with
	// large transmission groups an uncapped slot would delay low-deficit
	// receivers by (k-l)*Ts — seconds. A span of more than MaxNakSlots is
	// slotted as one of MaxNakSlots, so no NAK waits more than
	// MaxNakSlots*Ts and deficits below the cap still answer worst first,
	// one slot apart. The sender narrows the span itself once NAKs show
	// the top slots unused, so the cap binds only before the first NAK, at
	// high loss, or on the FIN. Default 16.
	MaxNakSlots int

	// Metrics, when non-nil, registers the engine's live instrument set
	// (see DESIGN.md "Observability") on the given registry. Several
	// engines may share one registry; same-named counters aggregate. Nil
	// disables instrumentation at near-zero cost.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives fixed-size protocol events (NAKs,
	// repair rounds, decodes — see the Trace* constants) into a bounded
	// ring buffer. Nil disables tracing.
	Trace *metrics.Tracer
}

// Defaults fills unset fields with working values.
func (c *Config) Defaults() {
	if c.AdaptiveFEC {
		if c.Adapt.Window == 0 {
			c.Adapt = adapt.DefaultConfig()
		}
		if c.ObserveLag == 0 {
			c.ObserveLag = 4
		}
		// The ladder owns the working point: the engine's static knobs
		// are pinned to the initial rung so buffer sizing, codec seeding
		// and metrics bounds see consistent values.
		if c.Adapt.Validate() == nil {
			p := c.Adapt.Ladder[c.Adapt.Initial].P
			c.K, c.MaxParity, c.Proactive = p.K, p.H, p.A
		}
	}
	if c.MaxParity == 0 {
		c.MaxParity = 4 * c.K
		if c.K <= 127 && c.MaxParity > rse.MaxNarrowBlock-c.K {
			// Stay within GF(2^8) when the group fits it.
			c.MaxParity = rse.MaxNarrowBlock - c.K
		}
	}
	if c.Delta == 0 {
		c.Delta = time.Millisecond
	}
	if c.Ts == 0 {
		c.Ts = 10 * time.Millisecond
	}
	if c.RetryBase == 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.FinInterval == 0 {
		c.FinInterval = 100 * time.Millisecond
	}
	if c.FinCount == 0 {
		c.FinCount = 5
	}
	if c.MaxGroups == 0 {
		c.MaxGroups = 1 << 20
	}
	if c.MaxNakSlots == 0 {
		c.MaxNakSlots = 16
	}
	if c.Pipeline.Depth > 0 {
		if c.Pipeline.Workers == 0 {
			c.Pipeline.Workers = 2
		}
		if c.Pipeline.Batch == 0 {
			c.Pipeline.Batch = 32
		}
	}
}

// pinN2 pins a defaulted config to N2's working point: one packet per
// group, no parities, static redundancy.
func (c *Config) pinN2() {
	c.K, c.MaxParity, c.Proactive = 1, 0, 0
	c.Adaptive, c.AdaptiveFEC, c.NCRepair = false, false, false
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.K < 1 || c.K > rse.MaxWideK {
		return fmt.Errorf("core: K = %d, need 1..%d", c.K, rse.MaxWideK)
	}
	if c.MaxParity < 0 || c.K+c.MaxParity > 65535 {
		return fmt.Errorf("core: MaxParity = %d with K = %d exceeds block limit", c.MaxParity, c.K)
	}
	if c.Proactive < 0 || c.Proactive > c.MaxParity {
		return fmt.Errorf("core: Proactive = %d out of [0, MaxParity=%d]", c.Proactive, c.MaxParity)
	}
	if c.ShardSize < 1 || c.ShardSize > 65000 {
		return fmt.Errorf("core: ShardSize = %d, need 1..65000", c.ShardSize)
	}
	if c.Delta <= 0 || c.Ts <= 0 || c.RetryBase <= 0 || c.FinInterval <= 0 {
		return fmt.Errorf("core: non-positive timing in %+v", *c)
	}
	if c.FinCount < 1 {
		return fmt.Errorf("core: FinCount = %d", c.FinCount)
	}
	if c.MaxGroups < 1 {
		return fmt.Errorf("core: MaxGroups = %d", c.MaxGroups)
	}
	if c.MaxNakSlots < 1 {
		return fmt.Errorf("core: MaxNakSlots = %d", c.MaxNakSlots)
	}
	if c.Pipeline.Depth < 0 || c.Pipeline.Depth > 1<<16 {
		return fmt.Errorf("core: Pipeline.Depth = %d, need 0..65536", c.Pipeline.Depth)
	}
	if c.Pipeline.Depth > 0 {
		if c.Pipeline.Workers < 1 || c.Pipeline.Workers > 256 {
			return fmt.Errorf("core: Pipeline.Workers = %d, need 1..256", c.Pipeline.Workers)
		}
		if c.Pipeline.Batch < 1 || c.Pipeline.Batch > 4096 {
			return fmt.Errorf("core: Pipeline.Batch = %d, need 1..4096", c.Pipeline.Batch)
		}
	}
	if c.AdaptiveFEC {
		if c.Carousel || c.Adaptive {
			return fmt.Errorf("core: AdaptiveFEC is mutually exclusive with Carousel/Adaptive")
		}
		if err := c.Adapt.Validate(); err != nil {
			return err
		}
		for i, r := range c.Adapt.Ladder {
			if r.P.K > rse.MaxWideK || r.P.K+r.P.H > 65535 {
				return fmt.Errorf("core: ladder rung %d (k=%d, h=%d) exceeds block limits", i, r.P.K, r.P.H)
			}
			if r.P.K+r.P.H > rse.MaxNarrowBlock && c.ShardSize%2 != 0 {
				return fmt.Errorf("core: ladder rung %d needs the GF(2^16) codec, which requires an even ShardSize (got %d)", i, c.ShardSize)
			}
		}
		if c.ObserveLag < 1 {
			return fmt.Errorf("core: ObserveLag = %d, need >= 1", c.ObserveLag)
		}
	}
	if c.CodecGate < GateMeasure || c.CodecGate > GateOff {
		return fmt.Errorf("core: CodecGate = %d, need %d..%d", c.CodecGate, GateMeasure, GateOff)
	}
	if c.NCRepair && !c.AdaptiveFEC {
		return fmt.Errorf("core: NCRepair requires AdaptiveFEC")
	}
	return nil
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("core: engine closed")

// ErrBusy is returned when Send is called while a transfer is in progress.
var ErrBusy = errors.New("core: transfer already in progress")
