package packet

import (
	"testing"
	"time"
	"unsafe"
)

func TestFlowIDString(t *testing.T) {
	tests := []struct {
		in   FlowID
		want string
	}{
		{FlowID{Edge: "E1", Local: 0}, "E1/0"},
		{FlowID{Edge: "edge-west", Local: 17}, "edge-west/17"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("FlowID%+v.String() = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestFlowIDComparable(t *testing.T) {
	a := FlowID{Edge: "E1", Local: 3}
	b := FlowID{Edge: "E1", Local: 3}
	c := FlowID{Edge: "E2", Local: 3}
	if a != b {
		t.Error("identical FlowIDs compare unequal")
	}
	if a == c {
		t.Error("FlowIDs with different edges compare equal")
	}
	m := map[FlowID]int{a: 1}
	if m[b] != 1 {
		t.Error("FlowID unusable as map key")
	}
}

func TestNewDefaults(t *testing.T) {
	f := FlowID{Edge: "E1", Local: 2}
	p := New(f, "E9", 41, 3*time.Second)
	if p.Flow != f {
		t.Errorf("Flow = %v, want %v", p.Flow, f)
	}
	if p.Dst != "E9" {
		t.Errorf("Dst = %q, want E9", p.Dst)
	}
	if p.SizeBytes != DefaultSizeBytes {
		t.Errorf("SizeBytes = %d, want %d", p.SizeBytes, DefaultSizeBytes)
	}
	if p.Seq != 41 {
		t.Errorf("Seq = %d, want 41", p.Seq)
	}
	if p.SentAt != 3*time.Second {
		t.Errorf("SentAt = %v, want 3s", p.SentAt)
	}
	if p.Marker != nil {
		t.Error("new packet carries a marker")
	}
	if p.Label != 0 {
		t.Error("new packet carries a CSFQ label")
	}
}

// TestPacketSize pins the packet struct's footprint on 64-bit platforms:
// the route handle and hop index took the place of the single destination
// id, in the same eight bytes, so every in-flight packet costs what it did.
func TestPacketSize(t *testing.T) {
	const want = 120
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Packet{}) != want {
		t.Errorf("unsafe.Sizeof(Packet{}) = %d, want %d", unsafe.Sizeof(Packet{}), want)
	}
}
