// Package hostperf measures, on the current host, the timing constants
// that parameterise the paper's Section-5 end-host models: the per-parity
// encoding constant ce and per-packet decoding constant cd of the
// Reed-Solomon coder, and the per-packet send/receive processing times of
// the UDP stack. The authors measured the same constants on a DECstation
// 5000/200 (model.PaperTiming); feeding measured constants into
// model.NPRates/N2Rates reproduces Figs 17/18 for today's hardware. Coder,
// which MeasureCoding builds on, also times Fig 1's coder throughput, so
// every figure about the coder reads one clock.
package hostperf

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"rmfec/internal/model"
	"rmfec/internal/rse"
)

// measureWindow is how long each micro-measurement loop runs.
const measureWindow = 40 * time.Millisecond

// perOp runs op back to back for window and returns its mean cost in
// microseconds. It is the one wall-clock loop every measurement here runs.
func perOp(window time.Duration, op func() error) (float64, error) {
	iters := 0
	start := time.Now()
	var elapsed time.Duration
	for elapsed < window {
		if err := op(); err != nil {
			return 0, err
		}
		iters++
		elapsed = time.Since(start)
	}
	return elapsed.Seconds() * 1e6 / float64(iters), nil
}

// coderOps builds the two operations Coder times on a (k, h) Reed-Solomon
// code over size-byte packets: a full-block Encode of h parities, and a
// Reconstruct of lose lost data shards from the rest plus the parities.
// The lost shards are handed back as recycled zero-length buffers, so
// decode times the steady-state receiver path: the l×l subsystem solve,
// no allocation after the first call.
func coderOps(k, h, lose, size int) (encode, decode func() error, err error) {
	if size < 1 || lose < 1 || lose > min(k, h) {
		return nil, nil, fmt.Errorf("hostperf: size %d, lose %d of k = %d, h = %d", size, lose, k, h)
	}
	code, err := rse.New(k, h)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	parity := make([][]byte, h)
	if err := code.Encode(data, parity); err != nil {
		return nil, nil, err
	}
	shards := make([][]byte, k+h)
	copy(shards[lose:], data[lose:])
	copy(shards[k:], parity)
	encode = func() error { return code.Encode(data, parity) }
	decode = func() error {
		for i := range lose {
			shards[i] = shards[i][:0]
		}
		return code.Reconstruct(shards)
	}
	return encode, decode, nil
}

// Coder times the Reed-Solomon coder for one (k, h) with size-byte
// packets, in microseconds per operation: encode is a full-block Encode of
// the h parities of k data packets; decode is a Reconstruct of lose lost
// data packets (1 <= lose <= min(k, h)) from the remaining data plus the
// parities. It is the one clock for the coder: Fig 1 plots k/encode and
// k/decode, and MeasureCoding derives ce and cd from it.
func Coder(k, h, lose, size int) (encode, decode float64, err error) {
	enc, dec, err := coderOps(k, h, lose, size)
	if err != nil {
		return 0, 0, err
	}
	if encode, err = perOp(measureWindow, enc); err != nil {
		return 0, 0, err
	}
	decode, err = perOp(measureWindow, dec)
	return encode, decode, err
}

// MeasureCoding returns the encoding and decoding constants (microseconds)
// for packetSize-byte packets: producing one parity for a TG of size k
// costs about k*ce, and reconstructing l lost packets costs about l*k*cd.
// The constants come from Coder with h = 4 and l = 3 (ce = encode/(h*k),
// cd = decode/(l*k)), averaged over several k to wash out fixed overheads.
func MeasureCoding(packetSize int) (ce, cd float64, err error) {
	const h, lose = 4, 3
	ks := []int{10, 20, 40}
	for _, k := range ks {
		enc, dec, err := Coder(k, h, lose, packetSize)
		if err != nil {
			return 0, 0, err
		}
		ce += enc / float64(h*k)
		cd += dec / float64(lose*k)
	}
	return ce / float64(len(ks)), cd / float64(len(ks)), nil
}

// MeasureUDP returns the per-packet processing time (microseconds) for
// sending and receiving size-byte datagrams over the loopback interface —
// the host-side Xp/Yp analogue of the paper's packet processing costs.
func MeasureUDP(size int) (send, recv float64, err error) {
	if size < 1 || size > 65000 {
		return 0, 0, fmt.Errorf("hostperf: datagram size = %d", size)
	}
	rc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0, fmt.Errorf("hostperf: listen: %w", err)
	}
	defer rc.Close()
	sc, err := net.DialUDP("udp4", nil, rc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, 0, fmt.Errorf("hostperf: dial: %w", err)
	}
	defer sc.Close()
	_ = rc.SetReadBuffer(4 << 20)

	payload := make([]byte, size)
	buf := make([]byte, size+64)

	// Send cost: time WriteTo calls (kernel may drop under pressure; we
	// only time the send path).
	send, err = perOp(measureWindow, func() error {
		if _, err := sc.Write(payload); err != nil {
			return fmt.Errorf("hostperf: send: %w", err)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}

	// Drain what is buffered, timing the receive path.
	if err := rc.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		return 0, 0, err
	}
	got := 0
	start := time.Now()
	for {
		if _, _, err := rc.ReadFromUDP(buf); err != nil {
			break // deadline: buffer drained
		}
		got++
	}
	if got == 0 {
		return 0, 0, fmt.Errorf("hostperf: loopback delivered no datagrams")
	}
	// Subtract the trailing deadline wait.
	recvElapsed := time.Since(start) - 200*time.Millisecond
	if recvElapsed <= 0 {
		recvElapsed = time.Millisecond
	}
	recv = recvElapsed.Seconds() * 1e6 / float64(got)
	return send, recv, nil
}

// Timing measures a model.Timing for this host: coder constants from
// MeasureCoding, packet costs from MeasureUDP with the paper's 2 KByte
// data packets and 64-byte NAKs, and a measured timer-arming overhead. If
// the loopback measurement fails (no network stack), the paper's packet
// constants are retained and only the coder constants are replaced.
func Timing() (model.Timing, error) {
	tm := model.PaperTiming
	ce, cd, err := MeasureCoding(2048)
	if err != nil {
		return tm, err
	}
	tm.Ce, tm.Cd = ce, cd

	if send, recvT, err := MeasureUDP(2048); err == nil {
		tm.Xp, tm.Yp = send, recvT
	}
	if sendN, recvN, err := MeasureUDP(64); err == nil {
		tm.Xn, tm.Yn, tm.Yo = sendN, recvN, recvN
	}

	// Timer overhead: arming and cancelling a timer (the op cannot fail).
	tm.Yt, _ = perOp(measureWindow/4, func() error {
		time.AfterFunc(time.Hour, func() {}).Stop()
		return nil
	})
	return tm, tm.Validate()
}
