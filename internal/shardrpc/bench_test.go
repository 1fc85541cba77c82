package shardrpc

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFrameChecksum measures the payload checksum at a small frame
// (2 KB) and an overlay snapshot's size. The figure wire.go's comment
// quotes is this one.
func BenchmarkFrameChecksum(b *testing.B) {
	for _, size := range []int{2 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			p := make([]byte, size)
			rand.New(rand.NewSource(1)).Read(p)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			var sum uint32
			for i := 0; i < b.N; i++ {
				sum += checksum(p)
			}
			if sum == 1 {
				b.Log(sum) // keeps the loop's result alive
			}
		})
	}
}
