package core

import (
	"rmfec/internal/metrics"
)

// Trace event kinds recorded by the NP engines into Config.Trace. Each
// Event carries the TG index in A and an event-specific operand in B.
const (
	// TraceNakRx: sender received a NAK; B is the reported deficit.
	TraceNakRx = "nak_rx"
	// TraceServiceRound: sender queued a repair round; B is the number of
	// repair packets queued beyond those already pending.
	TraceServiceRound = "service_round"
	// TraceNakTx: receiver multicast a NAK; B is its deficit.
	TraceNakTx = "nak_tx"
	// TraceDecode: receiver reconstructed a TG via Reed-Solomon; B is the
	// number of parity shards that participated.
	TraceDecode = "decode"
	// TraceDeliver: receiver delivered the reassembled message; A is the
	// total group count, B the message length.
	TraceDeliver = "deliver"
)

// recoveryBuckets bounds the receiver's group-recovery-latency histogram,
// in seconds: sub-millisecond (simnet virtual time) through multi-second
// WAN repairs.
var recoveryBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// senderMetrics is the NP sender's live instrument set; the zero value
// (all nil) disables instrumentation at the cost of one nil check per
// event. Counters mirror SenderStats but are readable at runtime through
// the registry's HTTP exposition while a transfer is in flight.
type senderMetrics struct {
	dataTx        *metrics.Counter
	parityTx      *metrics.Counter
	pollTx        *metrics.Counter
	finTx         *metrics.Counter
	nakRx         *metrics.Counter
	serviceRounds *metrics.Counter
	encoded       *metrics.Counter
	sourcePkts    *metrics.Counter
	groups        *metrics.Counter
	txErrors      *metrics.Counter
	queueDepth    *metrics.Gauge
	tgTx          *metrics.Histogram

	// Pipelined-path instruments (np_pipeline_*). Registered even for a
	// serial sender so the exposition schema does not depend on the
	// Pipeline knob; they simply stay zero when Depth = 0.
	encHits   *metrics.Counter   // encode-ahead window was deep enough
	encMisses *metrics.Counter   // engine had to block on the encode pool
	encQueue  *metrics.Gauge     // encode jobs submitted but not yet collected
	batchPkts *metrics.Histogram // data-plane frames per transmitted batch

	// Codec-portfolio instruments (np_codec_*): benchmark-gate verdicts
	// per era and the NC retransmission path's activity.
	gateAdmit  *metrics.Counter // non-RS codec admitted by the cost rule (GateMeasure)
	gateReject *metrics.Counter // candidate rejected (no cheaper than RS, GateOff, or unbuildable)
	gateForced *metrics.Counter // candidate admitted unconditionally (GateForce)
	ncTx       *metrics.Counter // NCREPAIR packets transmitted
	ncRounds   *metrics.Counter // repair rounds served with NC combos
}

// batchBuckets bounds the np_pipeline_batch_packets histogram: powers of
// two through the default Pipeline.Batch of 32 and one bucket beyond.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// newSenderMetrics registers the sender instrument set on r; a nil r
// yields the all-nil (disabled) set. Bucket bounds of the per-TG
// transmissions histogram scale with k so the interesting range — k (no
// loss) through a few k (heavy repair) — stays resolved at any group size.
func newSenderMetrics(r *metrics.Registry, k int) senderMetrics {
	if r == nil {
		return senderMetrics{}
	}
	fk := float64(k)
	// k+8 can coincide with 2k (k=8) or 4k; bounds must stay strictly
	// ascending, so collapse duplicates.
	var tgBounds []float64
	for _, b := range []float64{fk, fk + 1, fk + 2, fk + 4, fk + 8, 2 * fk, 4 * fk} {
		if n := len(tgBounds); n == 0 || b > tgBounds[n-1] {
			tgBounds = append(tgBounds, b)
		}
	}
	tx := func(kind string) *metrics.Counter {
		return r.Counter("np_sender_tx_packets_total",
			"packets multicast by the NP sender, by packet kind",
			metrics.Label{Key: "kind", Value: kind})
	}
	return senderMetrics{
		dataTx:   tx("data"),
		parityTx: tx("parity"),
		pollTx:   tx("poll"),
		finTx:    tx("fin"),
		nakRx: r.Counter("np_sender_naks_received_total",
			"NAK packets accepted by the sender (own session, valid group)"),
		serviceRounds: r.Counter("np_sender_service_rounds_total",
			"NAK-triggered repair rounds queued (after aggregation)"),
		encoded: r.Counter("np_sender_parities_encoded_total",
			"parity shards computed by the erasure codec on behalf of the sender"),
		sourcePkts: r.Counter("np_sender_source_packets_total",
			"original data packets of the message (groups x k); the E[M] denominator"),
		groups: r.Counter("np_sender_groups_total",
			"transmission groups of the message"),
		txErrors: r.Counter("np_sender_tx_errors_total",
			"data/control frames the transport reported as failed to send"),
		queueDepth: r.Gauge("np_sender_sendq_depth",
			"current depth of the paced send queue (packets)"),
		tgTx: r.Histogram("np_sender_tg_transmissions",
			"data+parity packets transmitted per TG (observed at Close); mean/k is the live E[M]",
			tgBounds),
		encHits:   encAhead(r, "hit"),
		encMisses: encAhead(r, "miss"),
		encQueue: r.Gauge("np_pipeline_queue_depth",
			"encode-ahead jobs submitted to the worker pool but not yet collected"),
		batchPkts: r.Histogram("np_pipeline_batch_packets",
			"data-plane frames handed to the transport per batched transmission",
			batchBuckets),
		gateAdmit:  gate(r, "admit"),
		gateReject: gate(r, "reject"),
		gateForced: gate(r, "force"),
		ncTx: r.Counter("np_codec_nc_tx_packets_total",
			"network-coded repair (NCREPAIR) packets multicast by the sender"),
		ncRounds: r.Counter("np_codec_nc_rounds_total",
			"repair rounds served with NC combinations instead of parities/resends"),
	}
}

// encAhead registers one result arm of the encode-ahead counter.
func encAhead(r *metrics.Registry, result string) *metrics.Counter {
	return r.Counter("np_pipeline_encode_ahead_total",
		"encode-ahead collections by outcome: hit = parities ready when needed, miss = engine blocked on the pool",
		metrics.Label{Key: "result", Value: result})
}

// gate registers one result arm of the codec-gate counter.
func gate(r *metrics.Registry, result string) *metrics.Counter {
	return r.Counter("np_codec_gate_total",
		"codec-gate verdicts on non-RS codec candidates, by outcome: admit (fewer shard passes per parity than RS), reject (not fewer/off/unbuildable), force (admitted unconditionally)",
		metrics.Label{Key: "result", Value: result})
}

// receiverMetrics is the NP receiver's live instrument set; the zero value
// disables instrumentation.
type receiverMetrics struct {
	dataRx     *metrics.Counter
	parityRx   *metrics.Counter
	pollRx     *metrics.Counter
	dupRx      *metrics.Counter
	nakSent    *metrics.Counter
	nakSupp    *metrics.Counter
	decodes    *metrics.Counter
	groupsDone *metrics.Counter
	deliveries *metrics.Counter
	recovery   *metrics.Histogram

	// NC retransmission instruments (np_codec_*): what arriving NCREPAIR
	// combos did for this receiver.
	ncRepair   *metrics.Counter // combo XOR-decoded into a missing data shard
	ncDup      *metrics.Counter // combo carried only packets already held
	ncUnusable *metrics.Counter // combo covered 2+ missing packets; undecodable here
}

// newReceiverMetrics registers the receiver instrument set on r; a nil r
// yields the all-nil (disabled) set.
func newReceiverMetrics(r *metrics.Registry) receiverMetrics {
	if r == nil {
		return receiverMetrics{}
	}
	rx := func(kind string) *metrics.Counter {
		return r.Counter("np_receiver_rx_packets_total",
			"first-copy packets accepted by the NP receiver, by packet kind",
			metrics.Label{Key: "kind", Value: kind})
	}
	nak := func(result string) *metrics.Counter {
		return r.Counter("np_receiver_naks_total",
			"NAK timer firings, by outcome: multicast or damped by another receiver's NAK",
			metrics.Label{Key: "result", Value: result})
	}
	return receiverMetrics{
		dataRx:   rx("data"),
		parityRx: rx("parity"),
		pollRx:   rx("poll"),
		dupRx: r.Counter("np_receiver_duplicates_total",
			"duplicate shards discarded"),
		nakSent: nak("sent"),
		nakSupp: nak("suppressed"),
		decodes: r.Counter("np_receiver_decodes_total",
			"TGs that needed Reed-Solomon reconstruction (any k shards held, but not all k data)"),
		groupsDone: r.Counter("np_receiver_groups_recovered_total",
			"TGs fully recovered"),
		deliveries: r.Counter("np_receiver_deliveries_total",
			"complete messages reassembled and delivered"),
		recovery: r.Histogram("np_receiver_recovery_seconds",
			"per-TG recovery latency: first shard received to TG decodable",
			recoveryBuckets),
		ncRepair:   ncRx(r, "repair"),
		ncDup:      ncRx(r, "dup"),
		ncUnusable: ncRx(r, "unusable"),
	}
}

// ncRx registers one result arm of the receiver's NCREPAIR counter.
func ncRx(r *metrics.Registry, result string) *metrics.Counter {
	return r.Counter("np_codec_nc_rx_total",
		"NCREPAIR combos processed by the receiver, by outcome: repair (one missing member recovered), dup (no missing members), unusable (2+ missing members)",
		metrics.Label{Key: "result", Value: result})
}
