package dtm

import (
	"math/rand"
	"testing"
)

// refNextOwned is the slot search the precomputed table replaced, kept as
// the reference: a walk over global slot indices from the cycle holding
// now (or minAbs), with string compares and offsets recomputed per slot.
func refNextOwned(s *BusSchedule, owner string, minAbs, now uint64) (uint64, bool) {
	if !s.Owns(owner) {
		return 0, false
	}
	n := uint64(len(s.Slots))
	lo := n * (now / s.CycleNs())
	if minAbs > lo {
		lo = minAbs
	}
	for abs := lo; ; abs++ {
		sl := s.Slots[abs%n]
		if sl.Owner != owner {
			continue
		}
		if s.SlotStart(abs)+sl.LenNs > now {
			return abs, true
		}
	}
}

// tableNextOwned is the table's answer for owner (ok=false when the owner
// holds no slot), as Sender.Send asks it.
func tableNextOwned(n *Network, owner string, minAbs, now uint64) (uint64, bool) {
	q := n.senders[owner]
	if q == nil || len(q.slots) == 0 {
		return 0, false
	}
	return n.table.nextOwned(q.slots, minAbs, now), true
}

// TestSlotTableMatchesReference compares the slot table with the
// reference search on random schedules: owners with no, one or several
// slots, with and without inter-slot gaps, minAbs far ahead of now, and
// now inside a slot, inside a gap and on exact slot and cycle boundaries.
func TestSlotTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2010))
	names := []string{"a", "b", "c", "d", "e"} // "e" never owns a slot
	checks := 0
	for iter := 0; iter < 300; iter++ {
		s := &BusSchedule{}
		if rng.Intn(2) == 1 {
			s.GapNs = uint64(rng.Intn(40) + 1)
		}
		for i, nSlots := 0, rng.Intn(7)+1; i < nSlots; i++ {
			s.Slots = append(s.Slots, BusSlot{Owner: names[rng.Intn(4)], LenNs: uint64(rng.Intn(90) + 10)})
		}
		n := NewNetwork(NewKernel(), 10)
		if err := n.SetSchedule(s); err != nil {
			t.Fatal(err)
		}
		cycle := s.CycleNs()
		// Instants of interest: every slot's start, last instant, end and
		// the gap after it, over a few cycles, plus random instants.
		var nows []uint64
		for c := uint64(0); c < 3; c++ {
			for i := range s.Slots {
				start := s.SlotStart(c*uint64(len(s.Slots)) + uint64(i))
				end := start + s.Slots[i].LenNs
				nows = append(nows, start, start+1, end-1, end, end+s.GapNs/2)
				if start > 0 {
					nows = append(nows, start-1)
				}
			}
			nows = append(nows, c*cycle, (c+1)*cycle-1)
		}
		for i := 0; i < 20; i++ {
			nows = append(nows, uint64(rng.Int63n(int64(50*cycle))))
		}
		for _, now := range nows {
			nowAbs := uint64(len(s.Slots)) * (now / cycle)
			for _, minAbs := range []uint64{0, nowAbs, nowAbs + 1, nowAbs + uint64(rng.Intn(3*len(s.Slots)+1)), nowAbs + 1000 + uint64(rng.Intn(50))} {
				for _, owner := range names {
					want, wantOK := refNextOwned(s, owner, minAbs, now)
					got, gotOK := tableNextOwned(n, owner, minAbs, now)
					if got != want || gotOK != wantOK {
						t.Fatalf("schedule %+v owner %s minAbs %d now %d: table (%d, %v), reference (%d, %v)", s, owner, minAbs, now, got, gotOK, want, wantOK)
					}
					if gotOK && n.table.start(got) != s.SlotStart(got) {
						t.Fatalf("slot %d starts at %d in the table, %d in the schedule", got, n.table.start(got), s.SlotStart(got))
					}
					checks++
				}
			}
		}
	}
	if checks < 10_000 {
		t.Fatalf("only %d comparisons", checks)
	}
}
