package core

import (
	"math"
	"testing"
	"time"
)

// TestSlotDelayLargestDeficitFirst pins RxRules.SlotDelay, the NAK slot of
// §5.1. A round of s ≤ MaxNakSlots transmissions gets the paper's slot
// s − l. A larger round is slotted as one of MaxNakSlots: deficits
// 1 … MaxNakSlots answer in strictly earlier slots as they grow, a deficit
// at or past MaxNakSlots answers in slot 0, and no slot reaches
// MaxNakSlots, so a NAK fires within MaxNakSlots·Ts, jitter included.
func TestSlotDelayLargestDeficitFirst(t *testing.T) {
	for _, slots := range []int{4, 16} {
		cfg := Config{Session: 7, K: 8, ShardSize: 16, Ts: time.Millisecond, MaxNakSlots: slots}
		cfg.Defaults()
		rx := NewRxRules(nil, cfg, 64)
		slot := func(s, l int) int { return int(rx.SlotDelay(s, l) / cfg.Ts) }
		for s := 1; s <= 64; s++ {
			prev := math.MaxInt
			for l := 1; l <= s; l++ {
				got := slot(s, l)
				switch {
				case s <= slots && got != s-l:
					t.Errorf("MaxNakSlots %d, round %d, deficit %d: slot %d, want s − l = %d", slots, s, l, got, s-l)
				case l >= slots && got != 0:
					t.Errorf("MaxNakSlots %d, round %d, deficit %d: slot %d, want 0", slots, s, l, got)
				case l <= slots && got >= prev:
					t.Errorf("MaxNakSlots %d, round %d: deficit %d in slot %d, not before deficit %d's slot %d", slots, s, l, got, l-1, prev)
				case got < 0 || got >= slots:
					t.Errorf("MaxNakSlots %d, round %d, deficit %d: slot %d outside [0, %d)", slots, s, l, got, slots)
				}
				prev = got
			}
		}
	}
	// lossy_decode's first round at the defaults (MaxNakSlots 16, Ts 10 ms):
	// 20 transmissions, deficits 1 … 4 in slots 15 … 12.
	cfg := Config{Session: 7, K: 20, ShardSize: 16}
	cfg.Defaults()
	rx := NewRxRules(nil, cfg, 64)
	for l := 1; l <= 4; l++ {
		if got, want := rx.SlotDelay(20, l), time.Duration(16-l)*10*time.Millisecond; got != want {
			t.Errorf("round 20, deficit %d: delay %v, want %v", l, got, want)
		}
	}
}
