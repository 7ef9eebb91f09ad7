package snap

import "testing"

// TestLenBoundedByRemainingBytes: a count is accepted only if its
// elements, at the stated minimum size, fit in the bytes left.
func TestLenBoundedByRemainingBytes(t *testing.T) {
	encode := func(n uint32, tail int) []byte {
		w := NewWriter(4 + tail)
		w.U32(n)
		for i := 0; i < tail; i++ {
			w.U8(0)
		}
		return w.Bytes()
	}
	cases := []struct {
		name    string
		n       uint32
		tail    int
		size    int
		wantErr bool
	}{
		{"empty", 0, 0, 8, false},
		{"exact-bytes", 5, 5, 1, false},
		{"exact-elements", 3, 24, 8, false},
		{"one-byte-short", 6, 5, 1, true},
		{"elements-short", 4, 24, 8, true},
		{"forged-huge", 1 << 31, 16, 1, true},
		{"overflowing-product", 1<<32 - 1, 16, 1 << 31, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(encode(tc.n, tc.tail))
			got := r.LenOf(tc.size)
			if (r.Err() != nil) != tc.wantErr {
				t.Fatalf("LenOf(%d) on count %d with %d bytes left: err = %v, want error %v", tc.size, tc.n, tc.tail, r.Err(), tc.wantErr)
			}
			if !tc.wantErr && got != int(tc.n) {
				t.Fatalf("LenOf = %d, want %d", got, tc.n)
			}
			if tc.wantErr && got != 0 {
				t.Fatalf("rejected count returned %d, want 0", got)
			}
		})
	}
	// Len is LenOf(1): the prefix itself is not counted as payload.
	if r := NewReader(encode(2, 1)); r.Len() != 0 || r.Err() == nil {
		t.Error("Len accepted a count of 2 with 1 byte left")
	}
}
