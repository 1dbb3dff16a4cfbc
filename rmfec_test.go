package rmfec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestFacadeCodecRoundTrip(t *testing.T) {
	code, err := NewCode(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("facade round trip through the re-exported API")
	data, err := Split(msg, 6)
	if err != nil {
		t.Fatal(err)
	}
	parity := make([][]byte, 2)
	if err := code.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	shards[0], shards[3] = nil, nil
	if err := code.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	got, err := Join(shards[:6])
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("Join = %q, %v", got, err)
	}
}

func TestFacadeModelsExposed(t *testing.T) {
	if em := ExpectedTxNoFEC(1000, 0.01); em <= 1 {
		t.Errorf("ExpectedTxNoFEC = %g", em)
	}
	if q := ResidualLoss(7, 8, 0.01); q <= 0 || q >= 0.01 {
		t.Errorf("ResidualLoss = %g", q)
	}
	integrated := ExpectedTxIntegrated(7, 0, 1000, 0.01)
	finite := ExpectedTxIntegratedFinite(7, 3, 0, 1000, 0.01)
	layered := ExpectedTxLayered(7, 2, 1000, 0.01)
	if !(integrated <= finite && finite < layered) {
		t.Errorf("ordering: integrated %g <= finite %g < layered %g", integrated, finite, layered)
	}
}

func TestFacadeSimulationExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := NewFBT(4, 0.05, rng)
	est := SimNoFEC(pop, SimTiming{Delta: 0.04, T: 0.3}, 500)
	if est.Mean < 1 || est.Samples != 500 {
		t.Errorf("estimate %+v", est)
	}
}

// ExampleNewCode demonstrates stand-alone erasure coding.
func ExampleNewCode() {
	code, _ := NewCode(4, 2)
	data := [][]byte{[]byte("ab"), []byte("cd"), []byte("ef"), []byte("gh")}
	parity := make([][]byte, 2)
	_ = code.Encode(data, parity)

	shards := [][]byte{nil, data[1], nil, data[3], parity[0], parity[1]}
	_ = code.Reconstruct(shards)
	fmt.Printf("%s%s\n", shards[0], shards[2])
	// Output: abef
}

// ExampleNewSender shows a complete reliable multicast transfer on the
// simulated network.
func ExampleNewSender() {
	rng := rand.New(rand.NewSource(7))
	sched := NewScheduler()
	net := NewNetwork(sched, rng)
	cfg := Config{Session: 1, K: 4, ShardSize: 32}

	sn := net.AddNode(NodeConfig{Delay: time.Millisecond})
	sender, _ := NewSender(sn, cfg)
	sn.SetHandler(sender.HandlePacket)

	rn := net.AddNode(NodeConfig{Delay: time.Millisecond, Loss: NewBernoulli(0.2, rng)})
	recv, _ := NewReceiver(rn, cfg)
	recv.OnComplete = func(msg []byte) { fmt.Println(string(msg)) }
	rn.SetHandler(recv.HandlePacket)

	_ = sender.Send([]byte("reliable even at 20% loss"))
	sched.Run()
	// Output: reliable even at 20% loss
}

func TestFacadeLargeCode(t *testing.T) {
	code, err := NewLargeCode(300, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := make([][]byte, 300)
	for i := range data {
		data[i] = make([]byte, 64)
		rng.Read(data[i])
	}
	parity := make([][]byte, 20)
	if err := code.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	for _, idx := range rng.Perm(300)[:20] {
		shards[idx] = nil
	}
	if err := code.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(shards[i], data[i]) {
			t.Fatalf("shard %d corrupted", i)
		}
	}
}

func TestFacadeHostTiming(t *testing.T) {
	tm, err := MeasureHostTiming()
	if err != nil {
		t.Skipf("host timing unavailable: %v", err)
	}
	r := NPRates(20, 1000, 0.01, tm, true)
	if r.Throughput <= 0 {
		t.Errorf("throughput = %g", r.Throughput)
	}
	if PaperTiming.Ce != 700 {
		t.Errorf("PaperTiming.Ce = %g", PaperTiming.Ce)
	}
}

func TestFacadeSimsAndTracers(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tm := SimTiming{Delta: 0.04, T: 0.3}
	popMk := func(seed int64) Population {
		r := rand.New(rand.NewSource(seed))
		procs := make([]LossProcess, 8)
		for i := range procs {
			procs[i] = NewMarkov(0.05, 2, 25, r)
		}
		return NewFBT(3, 0.05, r) // 8 receivers, shared loss
	}
	if est := SimLayered(popMk(1), 7, 1, tm, 200); est.Mean < 1 {
		t.Errorf("SimLayered mean %g", est.Mean)
	}
	if est := SimIntegrated1(popMk(2), 7, tm, 200); est.Mean < 1 {
		t.Errorf("SimIntegrated1 mean %g", est.Mean)
	}
	if est := SimLayeredInterleaved(popMk(3), 7, 1, 4, tm, 200); est.Mean < 1 {
		t.Errorf("SimLayeredInterleaved mean %g", est.Mean)
	}
	m, rounds := SimIntegrated2Detailed(popMk(4), 7, tm, 200)
	if m.Mean < 1 || rounds.Mean < 1 {
		t.Errorf("detailed: %g / %g", m.Mean, rounds.Mean)
	}
	if eT := ExpectedRoundsNP(7, 100, 0.01); eT < 1 {
		t.Errorf("ExpectedRoundsNP = %g", eT)
	}
	net := NewNetwork(NewScheduler(), rng)
	a := net.AddNode(NodeConfig{})
	net.AddNode(NodeConfig{})
	a.Multicast(make([]byte, 10)) //nolint:errcheck
	var acc NodeAccounting = a.Accounting()
	if acc.TxPackets != 1 || acc.TxBytes != 10 {
		t.Errorf("node accounting %+v", acc)
	}
}

func TestFacadeLayeredShimAndN2(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sched := NewScheduler()
	net := NewNetwork(sched, rng)
	rm := Config{Session: 3, K: 1, ShardSize: 64}
	fec := LayeredConfig{Session: 901, K: 4, H: 1, ShardSize: 128}

	sn := net.AddNode(NodeConfig{Delay: time.Millisecond})
	shim, err := NewLayeredShim(sn, fec)
	if err != nil {
		t.Fatal(err)
	}
	sn.SetHandler(shim.HandlePacket)
	snd, err := NewSenderN2(shim, rm)
	if err != nil {
		t.Fatal(err)
	}
	shim.SetUpper(snd.HandlePacket)

	rn := net.AddNode(NodeConfig{Delay: time.Millisecond, Loss: NewBernoulli(0.1, rng)})
	rshim, err := NewLayeredShim(rn, fec)
	if err != nil {
		t.Fatal(err)
	}
	rn.SetHandler(rshim.HandlePacket)
	rc, err := NewReceiverN2(rshim, rm)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	rc.OnComplete = func(m []byte) { got = m }
	rshim.SetUpper(rc.HandlePacket)

	msg := make([]byte, 4000)
	rng.Read(msg)
	if err := snd.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if !bytes.Equal(got, msg) {
		t.Fatal("layered N2 over facade failed")
	}
}
