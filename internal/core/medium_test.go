package core

import (
	"math/rand"
	"testing"

	"rmfec/internal/loss"
	"rmfec/internal/metrics"
)

// TestMediumAccountingMatchesEngines pins the medium's one record of what
// it carried against what the engines say they sent, on a lossy static NP
// transfer and on the portfolio ladder with NC repair, 4 receivers, the
// first of which also loses POLL/NAK/FIN: the sender's node transmits
// exactly its data, parity, NC, POLL and FIN frames, each receiver's node
// exactly its NAKs; every node receives or drops each frame the others
// sent; and the per-node records, Network.Stats and the simnet_net_*
// registry mirror agree.
func TestMediumAccountingMatchesEngines(t *testing.T) {
	ladderNC := portfolioConfig(GateForce)
	ladderNC.NCRepair = true
	for _, row := range []struct {
		name string
		cfg  Config
	}{{"static", baseConfig()}, {"ladder-nc", ladderNC}} {
		t.Run(row.name, func(t *testing.T) {
			h := newHarness(t, harnessOpts{r: 4, cfg: row.cfg, seed: 3501, lossyCtlR: 1,
				mkLoss: func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(0.05, rng) }})
			reg := metrics.NewRegistry()
			h.net.Instrument(reg)
			msg := testMessage(30000, 3502)
			h.run(t, msg)
			h.checkDelivered(t, msg)

			st := h.sender.Stats()
			if st.ParityTx+st.NcTx == 0 {
				t.Fatalf("no repairs sent (%+v): the transfer is not lossy", st)
			}
			want := uint64(st.DataTx + st.ParityTx + st.NcTx + st.PollTx + st.FinTx)
			if got := h.nodes[0].Accounting().TxPackets; got != want {
				t.Errorf("sender node TxPackets = %d, engine sent %d (%+v)", got, want, st)
			}
			for i, rc := range h.receivers {
				if got, naks := h.nodes[i+1].Accounting().TxPackets, rc.Stats().NakTx; got != uint64(naks) {
					t.Errorf("receiver %d node TxPackets = %d, NakTx = %d", i, got, naks)
				}
			}

			var tx, rx, drop uint64
			for _, n := range h.nodes {
				tx += n.Accounting().TxPackets
			}
			for i, n := range h.nodes {
				acc := n.Accounting()
				if others := tx - acc.TxPackets; acc.RxPackets+acc.DropPackets != others {
					t.Errorf("node %d: rx %d + drop %d != %d sent by the others", i, acc.RxPackets, acc.DropPackets, others)
				}
				rx += acc.RxPackets
				drop += acc.DropPackets
			}
			if h.nodes[1].Accounting().DropPackets == 0 {
				t.Error("the lossy receiver dropped nothing")
			}

			sent, delivered, dropped := h.net.Stats()
			if sent != tx || delivered != rx || dropped != drop {
				t.Errorf("Stats() = %d/%d/%d, nodes sum to %d/%d/%d", sent, delivered, dropped, tx, rx, drop)
			}
			netRx := func(result string) uint64 {
				return reg.Counter("simnet_net_rx_total", "", metrics.Label{Key: "result", Value: result}).Value()
			}
			if mtx, mrx, mdrop := reg.Counter("simnet_net_tx_total", "").Value(), netRx("delivered"), netRx("dropped"); mtx != tx || mrx != rx || mdrop != drop {
				t.Errorf("simnet_net_* = %d/%d/%d, nodes sum to %d/%d/%d", mtx, mrx, mdrop, tx, rx, drop)
			}
		})
	}
}
