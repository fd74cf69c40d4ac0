package jtag

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/protocol"
	"repro/internal/value"
)

// fakeRAM is a simple byte-addressable memory for TAP tests.
type fakeRAM struct {
	data [4096]byte
}

func (r *fakeRAM) ReadMem(addr uint32, p []byte) {
	for i := range p {
		if int(addr)+i < len(r.data) {
			p[i] = r.data[int(addr)+i]
		}
	}
}

func (r *fakeRAM) WriteMem(addr uint32, p []byte) {
	for i := range p {
		if int(addr)+i < len(r.data) {
			r.data[int(addr)+i] = p[i]
		}
	}
}

func newTestTAP() (*TAP, *fakeRAM) {
	ram := &fakeRAM{}
	return NewTAP(0x1234ABCD, ram), ram
}

func TestStateNames(t *testing.T) {
	if TestLogicReset.String() != "Test-Logic-Reset" || ShiftDR.String() != "Shift-DR" {
		t.Error("state names wrong")
	}
	if !strings.Contains(State(99).String(), "99") {
		t.Error("unknown state name")
	}
}

// Property: from any state, five TMS=1 edges reach Test-Logic-Reset.
// This is the fundamental JTAG recovery invariant.
func TestFiveTMSOnesResets(t *testing.T) {
	for s := TestLogicReset; s <= UpdateIR; s++ {
		cur := s
		for i := 0; i < 5; i++ {
			cur = cur.Next(true)
		}
		if cur != TestLogicReset {
			t.Errorf("from %v, 5×TMS=1 reached %v", s, cur)
		}
	}
}

// Property: the transition function is total and stays within the 16 states.
func TestQuickNextTotal(t *testing.T) {
	f := func(s uint8, tms bool) bool {
		next := State(s % 16).Next(tms)
		return next <= UpdateIR
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftStatesLoop(t *testing.T) {
	if ShiftDR.Next(false) != ShiftDR || ShiftIR.Next(false) != ShiftIR {
		t.Error("shift states must self-loop on TMS=0")
	}
	if PauseDR.Next(false) != PauseDR || PauseIR.Next(false) != PauseIR {
		t.Error("pause states must self-loop on TMS=0")
	}
	if Exit2DR.Next(false) != ShiftDR || Exit2IR.Next(false) != ShiftIR {
		t.Error("exit2 must return to shift")
	}
}

func TestReadIDCODE(t *testing.T) {
	tap, _ := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	if got := p.ReadIDCODE(); got != 0x1234ABCD {
		t.Errorf("IDCODE = %#x, want 0x1234ABCD", got)
	}
	// Reading again must work (capture reloads each scan).
	if got := p.ReadIDCODE(); got != 0x1234ABCD {
		t.Errorf("second IDCODE = %#x", got)
	}
}

func TestResetSelectsIDCODE(t *testing.T) {
	tap, _ := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	p.WriteIR(IRBypass)
	if tap.IR() != IRBypass {
		t.Fatalf("IR = %#x, want BYPASS", tap.IR())
	}
	p.Reset()
	if tap.IR() != IRIdcode {
		t.Errorf("after reset IR = %#x, want IDCODE", tap.IR())
	}
	if tap.State() != RunTestIdle {
		t.Errorf("after Reset state = %v", tap.State())
	}
}

func TestBypassIsOneBit(t *testing.T) {
	tap, _ := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	p.WriteIR(IRBypass)
	// Shift pattern 0b1011 through the 1-bit bypass register: output is
	// the input delayed by exactly one bit, with a leading captured 0.
	got := p.scanDR(0b1011, 5)
	if got != 0b10110 {
		t.Errorf("bypass shift = %05b, want 10110", got)
	}
}

func TestUnknownIRBehavesAsBypass(t *testing.T) {
	tap, _ := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	// 0x0 and 0x2 are EXTEST and SAMPLE in IEEE 1149.1; the TAP has no
	// boundary register, so they are unassigned here too.
	for _, ir := range []uint8{0x0, 0x2, 0x7} {
		p.WriteIR(ir)
		if got := p.scanDR(0b11, 3); got != 0b110 {
			t.Errorf("IR %#x shift = %03b, want 110", ir, got)
		}
	}
}

func TestDebugMemoryReadWrite(t *testing.T) {
	tap, ram := newTestTAP()
	p := NewProbe(tap)
	p.Reset()

	p.WriteWord(64, 0xDEADBEEFCAFE0123)
	if got := p.ReadWord(64); got != 0xDEADBEEFCAFE0123 {
		t.Errorf("ReadWord = %#x", got)
	}
	// The bytes must land little-endian in RAM.
	if ram.data[64] != 0x23 || ram.data[71] != 0xDE {
		t.Errorf("RAM layout wrong: % x", ram.data[64:72])
	}
}

func TestReadBytesAutoIncrement(t *testing.T) {
	tap, ram := newTestTAP()
	for i := 0; i < 40; i++ {
		ram.data[100+i] = byte(i + 1)
	}
	p := NewProbe(tap)
	p.Reset()
	got := p.ReadBytes(100, 33) // crosses word boundaries, non-multiple of 8
	if len(got) != 33 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 0; i < 33; i++ {
		if got[i] != byte(i+1) {
			t.Fatalf("byte %d = %d, want %d", i, got[i], i+1)
		}
	}
	if p.ReadBytes(0, 0) != nil {
		t.Error("zero-length read should be nil")
	}
}

func TestHostTimeAccounting(t *testing.T) {
	tap, _ := newTestTAP()
	p := NewProbe(tap)
	before := p.HostTimeNs()
	p.Reset()
	p.ReadWord(0)
	if p.HostTimeNs() <= before {
		t.Error("host time must advance")
	}
	if p.Ops() == 0 {
		t.Error("ops not counted")
	}
	// A word read = setAddr(WriteIR+scan40) + WriteIR + scan64: 4 transactions
	// plus reset = 5.
	if p.Ops() != 5 {
		t.Errorf("Ops = %d, want 5", p.Ops())
	}
	if tap.TCKCount == 0 {
		t.Error("TCK cycles not counted")
	}
}

func TestWatcherDetectsChanges(t *testing.T) {
	tap, ram := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	w := NewWatcher(p)

	// Lay out a float at 0, an int at 8, a bool at 16 — as codegen would.
	buf := make([]byte, 8)
	mustEncode(t, value.F(20.5), buf)
	ram.WriteMem(0, buf)
	mustEncode(t, value.I(3), buf)
	ram.WriteMem(8, buf)
	ram.WriteMem(16, []byte{1})

	if err := w.Add(Watch{Symbol: "temp", Addr: 0, Size: 8, Kind: value.Float}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Watch{Symbol: "state", Addr: 8, Size: 8, Kind: value.Int}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Watch{Symbol: "on", Addr: 16, Size: 1, Kind: value.Bool}); err != nil {
		t.Fatal(err)
	}

	// First poll reports all three (baseline).
	evs := w.Poll(1000)
	if len(evs) != 3 {
		t.Fatalf("baseline poll: %d events, want 3", len(evs))
	}
	for _, e := range evs {
		if e.Type != protocol.EvWatch || e.Time != 1000 || e.Arg1 != "" {
			t.Errorf("baseline event malformed: %+v", e)
		}
	}

	// No change -> no events.
	if evs := w.Poll(2000); len(evs) != 0 {
		t.Fatalf("no-change poll: %v", evs)
	}

	// Change the int (a state variable changing value, the paper's example).
	mustEncode(t, value.I(4), buf)
	ram.WriteMem(8, buf)
	evs = w.Poll(3000)
	if len(evs) != 1 {
		t.Fatalf("change poll: %d events", len(evs))
	}
	e := evs[0]
	if e.Source != "state" || e.Arg1 != "3" || e.Arg2 != "4" || e.Value != 4 {
		t.Errorf("watch event = %+v", e)
	}
}

func TestWatcherErrors(t *testing.T) {
	tap, _ := newTestTAP()
	w := NewWatcher(NewProbe(tap))
	if err := w.Add(Watch{Symbol: "x", Addr: 0, Size: 4, Kind: value.Float}); err == nil {
		t.Error("size mismatch should fail")
	}
	if err := w.Add(Watch{Symbol: "x", Addr: 0, Size: 8, Kind: value.Float}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Watch{Symbol: "x", Addr: 8, Size: 8, Kind: value.Float}); err == nil {
		t.Error("duplicate symbol should fail")
	}
	if got := w.Watches(); len(got) != 1 || got[0].Symbol != "x" {
		t.Errorf("Watches = %v", got)
	}
}

func mustEncode(t *testing.T, v value.Value, buf []byte) {
	t.Helper()
	if _, err := value.EncodeBytes(v, buf); err != nil {
		t.Fatal(err)
	}
}

// Property: memory words written through the debug port read back
// identically for arbitrary addresses and values.
func TestQuickDebugPortRoundtrip(t *testing.T) {
	tap, _ := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	f := func(addr uint16, v uint64) bool {
		a := uint32(addr % 4000)
		p.WriteWord(a, v)
		return p.ReadWord(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: random TMS/TDI stimulation never panics and keeps the state
// within range; afterwards the probe can still recover with Reset.
func TestQuickTAPRobustness(t *testing.T) {
	f := func(stimulus []byte) bool {
		tap, _ := newTestTAP()
		for _, b := range stimulus {
			tap.Clock(b&1 != 0, b&2 != 0)
			if tap.State() > UpdateIR {
				return false
			}
		}
		p := NewProbe(tap)
		p.Reset()
		return p.ReadIDCODE() == 0x1234ABCD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWatcherSnapshotRestore pins the change-detection cache as state: a
// watcher restored from a snapshot — including a fresh watcher in a new
// process — must NOT re-announce unchanged values on its first poll, and
// must report a change against the *restored* previous value, not against
// whatever its own cache last saw.
func TestWatcherSnapshotRestore(t *testing.T) {
	tap, ram := newTestTAP()
	p := NewProbe(tap)
	p.Reset()
	w := NewWatcher(p)
	buf := make([]byte, 8)
	mustEncode(t, value.I(3), buf)
	ram.WriteMem(0, buf)
	if err := w.Add(Watch{Symbol: "state", Addr: 0, Size: 8, Kind: value.Int}); err != nil {
		t.Fatal(err)
	}
	evs := w.Poll(1000) // baseline
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("baseline = %+v", evs)
	}
	st := w.Snapshot()

	// A fresh watcher (new process) with the state restored: first poll is
	// silent because RAM still matches the restored previous values.
	w2 := NewWatcher(p)
	if err := w2.Add(Watch{Symbol: "state", Addr: 0, Size: 8, Kind: value.Int}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if evs := w2.Poll(2000); len(evs) != 0 {
		t.Fatalf("restored watcher re-announced unchanged watches: %v", evs)
	}

	// The live watcher races ahead (sees 4); rewinding it to the snapshot
	// must diff against the snapshot's value 3, with continued seq numbers.
	mustEncode(t, value.I(4), buf)
	ram.WriteMem(0, buf)
	if evs := w.Poll(3000); len(evs) != 1 {
		t.Fatalf("live change: %v", evs)
	}
	mustEncode(t, value.I(5), buf)
	ram.WriteMem(0, buf)
	if err := w.Restore(st); err != nil {
		t.Fatal(err)
	}
	evs = w.Poll(4000)
	if len(evs) != 1 || evs[0].Arg1 != "3" || evs[0].Arg2 != "5" || evs[0].Seq != 2 {
		t.Fatalf("post-rewind diff = %+v (want old=3 new=5 seq=2)", evs)
	}

	// The snapshot still carries the original previous value (it is a deep
	// copy through the portable encoding, not an alias of the live cache).
	if v, err := value.Decode(st.Last["state"]); err != nil || v.Int() != 3 {
		t.Fatalf("snapshot cache = %+v (decode: %v)", st.Last, err)
	}
}
