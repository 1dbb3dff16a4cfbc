package udpcast

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/metrics"
)

// groupAddr returns a test multicast group; the port is randomised to keep
// parallel test runs apart.
func groupAddr(t *testing.T) string {
	t.Helper()
	return fmt.Sprintf("239.77.%d.%d:%d", rand.Intn(250)+1, rand.Intn(250)+1, 20000+rand.Intn(20000))
}

// join skips the test when the environment has no multicast support.
func join(t *testing.T, group string) *Conn {
	t.Helper()
	c, err := Join(group, nil)
	if err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestJoinValidation(t *testing.T) {
	if _, err := Join("not an address", nil); err == nil {
		t.Error("garbage address accepted")
	}
	if _, err := Join("127.0.0.1:9000", nil); err == nil {
		t.Error("unicast address accepted as multicast group")
	}
}

func TestLoopbackDelivery(t *testing.T) {
	group := groupAddr(t)
	a := join(t, group)
	b := join(t, group)

	got := make(chan []byte, 10)
	b.Serve(func(p []byte) { got <- append([]byte(nil), p...) })
	// Multicast loopback needs a moment for the IGMP join on some stacks.
	time.Sleep(50 * time.Millisecond)
	if err := a.Multicast([]byte("over the wire")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if !bytes.Equal(p, []byte("over the wire")) {
			t.Fatalf("got %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Skip("multicast loopback not delivering in this environment")
	}
}

func TestMulticastBatchDelivery(t *testing.T) {
	group := groupAddr(t)
	a := join(t, group)
	b := join(t, group)

	got := make(chan []byte, 10)
	b.Serve(func(p []byte) { got <- append([]byte(nil), p...) })
	time.Sleep(50 * time.Millisecond)
	frames := [][]byte{[]byte("frame-0"), []byte("frame-1"), []byte("frame-2")}
	if sent, err := a.MulticastBatch(frames); err != nil || sent != len(frames) {
		t.Fatalf("MulticastBatch = (%d, %v), want (%d, nil)", sent, err, len(frames))
	}
	for i := range frames {
		select {
		case p := <-got:
			if !bytes.Equal(p, frames[i]) {
				t.Fatalf("frame %d: got %q, want %q", i, p, frames[i])
			}
		case <-time.After(2 * time.Second):
			t.Skip("multicast loopback not delivering in this environment")
		}
	}
}

func TestAfterAndCancel(t *testing.T) {
	group := groupAddr(t)
	c := join(t, group)
	var fired atomic.Int32
	c.After(10*time.Millisecond, func() { fired.Add(1) })
	cancel := c.After(10*time.Millisecond, func() { fired.Add(100) })
	cancel()
	time.Sleep(100 * time.Millisecond)
	if got := fired.Load(); got != 1 {
		t.Fatalf("fired = %d, want 1", got)
	}
	if c.Now() <= 0 {
		t.Error("Now() not monotone from Join")
	}
}

// TestCallbacksMayReenterConn pins the re-entrancy contract of Conn: engine
// callbacks run with the engine mutex held and call back into the Env
// methods, so none of them may take that mutex. It needs no loopback
// delivery, only a joined group. A method that re-takes mu blocks forever,
// so the test fails at a deadline instead of hanging, and skips Close
// (which would block on mu too) on that path.
func TestCallbacksMayReenterConn(t *testing.T) {
	c, err := Join(groupAddr(t), nil)
	if err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(func() {
			if err := c.Multicast([]byte("data")); err != nil {
				t.Errorf("Multicast: %v", err)
			}
			if err := c.MulticastControl([]byte("control")); err != nil {
				t.Errorf("MulticastControl: %v", err)
			}
			if sent, err := c.MulticastBatch([][]byte{[]byte("b0"), []byte("b1")}); err != nil || sent != 2 {
				t.Errorf("MulticastBatch = (%d, %v), want (2, nil)", sent, err)
			}
			cancel := c.After(time.Hour, func() {})
			cancel()
			_ = c.Rand().Int63()
			_ = c.Now()
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("an Env method called under Do did not return within 5s: it takes the engine mutex its caller holds")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotentAndStopsTimers(t *testing.T) {
	group := groupAddr(t)
	c := join(t, group)
	var fired atomic.Int32
	c.After(50*time.Millisecond, func() { fired.Add(1) })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if fired.Load() != 0 {
		t.Error("timer fired after Close")
	}
	if err := c.Multicast([]byte("x")); err != ErrClosed {
		t.Errorf("Multicast after close: %v", err)
	}
}

func TestNPTransferOverUDP(t *testing.T) {
	// End-to-end: the NP engines, unchanged, over real multicast sockets.
	group := groupAddr(t)
	sConn := join(t, group)
	r1Conn := join(t, group)
	r2Conn := join(t, group)

	cfg := core.Config{
		Session:   uint32(rand.Int31()),
		K:         8,
		ShardSize: 512,
		Delta:     200 * time.Microsecond,
		Ts:        2 * time.Millisecond,
		RetryBase: 50 * time.Millisecond,
	}
	sender, err := core.NewSender(sConn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte, 2)
	mkReceiver := func(conn *Conn) {
		rc, err := core.NewReceiver(conn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc.OnComplete = func(m []byte) { done <- append([]byte(nil), m...) }
		conn.Serve(rc.HandlePacket)
	}
	mkReceiver(r1Conn)
	mkReceiver(r2Conn)
	sConn.Serve(sender.HandlePacket)
	time.Sleep(50 * time.Millisecond) // let IGMP joins settle

	msg := make([]byte, 40000)
	rand.New(rand.NewSource(1)).Read(msg)
	sConn.Do(func() {
		if err := sender.Send(msg); err != nil {
			t.Error(err)
		}
	})

	for i := 0; i < 2; i++ {
		select {
		case got := <-done:
			if !bytes.Equal(got, msg) {
				t.Fatal("delivered message corrupted")
			}
		case <-time.After(10 * time.Second):
			t.Skip("multicast loopback not delivering in this environment")
		}
	}
}

func TestConnMetricsReconcile(t *testing.T) {
	group := groupAddr(t)
	a := join(t, group)
	b := join(t, group)
	rega := metrics.NewRegistry()
	regb := metrics.NewRegistry()
	a.Instrument(rega)
	b.Instrument(regb)

	var rx atomic.Int64
	var rxBytes atomic.Int64
	b.Serve(func(p []byte) { rx.Add(1); rxBytes.Add(int64(len(p))) })
	time.Sleep(50 * time.Millisecond)

	const dataN, ctlN = 7, 3
	payload := []byte("metered payload")
	for i := 0; i < dataN; i++ {
		if err := a.Multicast(payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ctlN; i++ {
		if err := a.MulticastControl(payload); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for rx.Load() < dataN+ctlN && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if rx.Load() == 0 {
		t.Skip("multicast loopback not delivering in this environment")
	}

	// Sender-side accounting is exact: every accepted write was metered on
	// the right plane.
	var buf bytes.Buffer
	if err := rega.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	wantTx := map[string]float64{
		`udpcast_tx_packets_total{plane="data"}`:    dataN,
		`udpcast_tx_packets_total{plane="control"}`: ctlN,
		"udpcast_tx_bytes_total":                    float64((dataN + ctlN) * len(payload)),
		"udpcast_tx_errors_total":                   0,
	}
	for series, want := range wantTx {
		if got := snap[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// Receiver-side accounting must agree with what the handler saw (UDP
	// may drop, so compare against the handler's own count, not dataN).
	var bb bytes.Buffer
	if err := regb.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	var bsnap map[string]any
	if err := json.Unmarshal(bb.Bytes(), &bsnap); err != nil {
		t.Fatal(err)
	}
	if got := bsnap["udpcast_rx_packets_total"]; got != float64(rx.Load()) {
		t.Errorf("udpcast_rx_packets_total = %v, handler saw %d", got, rx.Load())
	}
	if got := bsnap["udpcast_rx_bytes_total"]; got != float64(rxBytes.Load()) {
		t.Errorf("udpcast_rx_bytes_total = %v, handler saw %d bytes", got, rxBytes.Load())
	}
	if got := bsnap["udpcast_serves_total"]; got != float64(1) {
		t.Errorf("udpcast_serves_total = %v, want 1", got)
	}

	// Close is metered once, however many times it is called, and a write
	// after Close is metered as an error.
	b.Close()
	b.Close()
	if got := bGaugeValue(t, regb, "udpcast_closes_total"); got != 1 {
		t.Errorf("udpcast_closes_total = %d after double Close, want 1", got)
	}
	a.Close()
	if err := a.Multicast(payload); err == nil {
		t.Error("Multicast after Close succeeded")
	}
	if got := bGaugeValue(t, rega, "udpcast_tx_errors_total"); got != 1 {
		t.Errorf("udpcast_tx_errors_total = %d after write-on-closed, want 1", got)
	}
}

// bGaugeValue reads one numeric series back through the JSON exposition.
func bGaugeValue(t *testing.T, reg *metrics.Registry, series string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	f, _ := snap[series].(float64)
	return int(f)
}
