package writebench

import (
	"testing"

	"repro/internal/dfs/client"
)

func withCluster(b *testing.B, fn func(b *testing.B, c *Cluster)) {
	for _, kind := range []Transport{Inmem, TCP} {
		b.Run(string(kind), func(b *testing.B) {
			c, err := Start(kind)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			fn(b, c)
		})
	}
}

func BenchmarkWriteFileSerial(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchWriteFile(b, c, 1) })
}

func BenchmarkWriteFileParallel(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchWriteFile(b, c, client.DefaultWriteParallelism) })
}

func BenchmarkWriteSyntheticSerial(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchWriteSynthetic(b, c, 1) })
}

func BenchmarkWriteSyntheticParallel(b *testing.B) {
	withCluster(b, func(b *testing.B, c *Cluster) { BenchWriteSynthetic(b, c, client.DefaultWriteParallelism) })
}

func BenchmarkLargeWritePipelinedFast(b *testing.B) {
	c, err := StartLargeTCP(true)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	BenchLargeWritePipelined(b, c)
}

func BenchmarkLargeWritePipelinedGob(b *testing.B) {
	c, err := StartLargeTCP(false)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	BenchLargeWritePipelined(b, c)
}
