package ring

import "testing"

func TestDescriptorRoundTrip(t *testing.T) {
	var b [DescBytes]byte
	EncodeDescriptor(b[:], OpWrite, 77, 0xdeadbeefcafe, 9, 0x7ffff000)
	op, id, lba, count, buf, guard := DecodeDescriptorPI(b[:])
	if op != OpWrite || id != 77 || lba != 0xdeadbeefcafe || count != 9 || buf != 0x7ffff000 || guard != 0 {
		t.Fatalf("round trip mangled: op=%d id=%d lba=%#x count=%d buf=%#x", op, id, lba, count, buf)
	}
}

func TestCompletionRoundTrip(t *testing.T) {
	var b [CplBytes]byte
	EncodeCompletion(b[:], 42, StatusMediumError, 1<<31)
	id, status, seq := DecodeCompletion(b[:])
	if id != 42 || status != StatusMediumError || seq != 1<<31 {
		t.Fatalf("round trip mangled: id=%d status=%d seq=%d", id, status, seq)
	}
}

func TestValidSize(t *testing.T) {
	for _, n := range []uint64{1, 2, 8, 128, 256, MaxEntries} {
		if !ValidSize(n) {
			t.Errorf("ValidSize(%d) = false, want true", n)
		}
	}
	for _, n := range []uint64{0, 3, 100, 255, 257, MaxEntries + 1, MaxEntries * 2} {
		if ValidSize(n) {
			t.Errorf("ValidSize(%d) = true, want false", n)
		}
	}
}

func TestDoorbellValid(t *testing.T) {
	cases := []struct {
		prod, cons, entries uint32
		want                bool
	}{
		{0, 0, 8, true},           // empty announcement
		{8, 0, 8, true},           // exactly one full ring
		{9, 0, 8, false},          // claims more than the ring holds
		{1, 0xFFFFFFFF, 8, true},  // wraparound: distance 2
		{0xFFFFFFF0, 4, 8, false}, // backwards (huge modular distance)
		{260, 255, 256, true},     // free-running indices past the size
		{1024, 512, 256, false},   // a lap ahead of the consumer
	}
	for _, c := range cases {
		if got := DoorbellValid(c.prod, c.cons, c.entries); got != c.want {
			t.Errorf("DoorbellValid(%d,%d,%d) = %v, want %v", c.prod, c.cons, c.entries, got, c.want)
		}
	}
}

func TestSlots(t *testing.T) {
	if got := DescSlot(1000, 9, 8); got != 1000+1*DescBytes {
		t.Errorf("DescSlot wrap: got %d", got)
	}
	// Sequence 1 is the first completion and occupies slot 0.
	if got := CplSlot(2000, 1, 8); got != 2000 {
		t.Errorf("CplSlot(seq=1): got %d", got)
	}
	if got := CplSlot(2000, 9, 8); got != 2000 {
		t.Errorf("CplSlot(seq=9) should wrap to slot 0: got %d", got)
	}
}

func TestStatusError(t *testing.T) {
	if StatusError(StatusOK) != nil {
		t.Error("StatusOK must map to nil")
	}
	for _, st := range []uint32{StatusOutOfRange, StatusNoSpace, StatusDisabled, StatusDMAFault, StatusMediumError, StatusAborted, 99} {
		if StatusError(st) == nil {
			t.Errorf("status %d must map to an error", st)
		}
	}
}
