package field_test

import (
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/adapt"
	"rmfec/internal/core"
	"rmfec/internal/field"
	"rmfec/internal/loss"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// runAdaptiveField wires an adaptive NP sender and an aggregate-mode Field
// onto a simulated network and runs a transfer of msgLen bytes.
func runAdaptiveField(t testing.TB, pcfg core.Config, msgLen int,
	pop loss.Population, netSeed, fieldSeed int64) *fieldRun {
	t.Helper()
	sched := simnet.NewScheduler()
	sched.MaxEvents = 100_000_000
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(netSeed)))

	senderNode := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
	sender, err := core.NewSender(senderNode, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	senderNode.SetHandler(sender.HandlePacket)

	fieldNode := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
	f, err := field.New(fieldNode, field.Config{
		Protocol:   pcfg,
		Population: pop,
		Seed:       fieldSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	fieldNode.SetHandler(f.HandlePacket)

	if err := sender.Send(testMessage(msgLen, 5)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	return &fieldRun{field: f, sender: sender}
}

// portfolioRung returns an adaptive config pinned to one ladder rung.
func portfolioRung(p adapt.Params, session uint32) core.Config {
	ac := adapt.DefaultConfig()
	ac.Ladder = []adapt.Rung{{PMax: 1, P: p}}
	return core.Config{
		Session: session, ShardSize: 32,
		AdaptiveFEC: true, Adapt: ac,
		CodecGate: core.GateForce,
	}
}

// TestFieldRectCodecTransfer drives a rect-coded adaptive session against
// an emulated population: the field must adopt the rect identity from the
// TG headers and use the per-class shortfall rule for its NAK deficits —
// the MDS rule would under-report and deadlock classes hit twice.
func TestFieldRectCodecTransfer(t *testing.T) {
	pcfg := portfolioRung(adapt.Params{K: 12, H: 3, A: 1, Codec: packet.CodecRect, CodecArg: 3}, 31)
	pop := loss.NewBernoulliPopulation(400, 0.03, rand.New(rand.NewSource(611)))
	run := runAdaptiveField(t, pcfg, 12*32*80, pop, 612, 613)

	if !run.field.Complete() {
		t.Fatalf("rect-coded field transfer incomplete: %+v", run.field.Stats())
	}
	st := run.field.Stats()
	if st.ParityRx == 0 {
		t.Errorf("population healed without a single rect parity: %+v", st)
	}
	if st.GroupsDone != run.sender.Groups() {
		t.Errorf("field finished %d groups, sender cut %d", st.GroupsDone, run.sender.Groups())
	}
}

// TestFieldNcRepairHeals enables NC retransmission on a scattered-loss
// population whose deficits overflow a tiny parity budget (h=2): the
// sender must serve rounds as XOR combos of the exact seqs the aggregate
// NAK's loss map reports, and the field must apply them to every tracked
// receiver missing exactly one combo member.
func TestFieldNcRepairHeals(t *testing.T) {
	pcfg := portfolioRung(adapt.Params{K: 8, H: 2, A: 0}, 32)
	pcfg.NCRepair = true
	pop := loss.NewBernoulliPopulation(60, 0.15, rand.New(rand.NewSource(711)))
	run := runAdaptiveField(t, pcfg, 8*32*60, pop, 712, 713)

	if !run.field.Complete() {
		t.Fatalf("NC field transfer incomplete: %+v", run.field.Stats())
	}
	sst := run.sender.Stats()
	if sst.NcRounds == 0 || sst.NcTx == 0 {
		t.Fatalf("scattered loss at l > h never triggered an NC round: %+v", sst)
	}
	fst := run.field.Stats()
	if fst.NcRx == 0 || fst.NcRepaired == 0 {
		t.Errorf("field applied no NC repairs (NcRx=%d NcRepaired=%d) despite %d NC packets",
			fst.NcRx, fst.NcRepaired, sst.NcTx)
	}
}
