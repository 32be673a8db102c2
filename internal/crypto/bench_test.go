package crypto

import (
	"bytes"
	"strconv"
	"testing"
)

// BenchmarkSealOpen measures one in-place seal + open round trip of a
// 128 B payload (a DLRM row) and a 4 KB one (an XLM-R row).
func BenchmarkSealOpen(b *testing.B) {
	for _, size := range []int{128, 4096} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			s, err := NewSealer(testKey())
			if err != nil {
				b.Fatal(err)
			}
			plain := bytes.Repeat([]byte{0x42}, size)
			sealed := make([]byte, s.SealedSize(size))
			opened := make([]byte, size)
			b.SetBytes(int64(2 * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.SealTo(sealed, plain); err != nil {
					b.Fatal(err)
				}
				if err := s.OpenTo(opened, sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
