package workloads

import (
	"math/rand"
	"strings"
)

// vocabulary approximates the word-frequency skew of the consumer
// complaint corpus the paper concatenates for its wordcount inputs.
var vocabulary = []string{
	"the", "and", "credit", "report", "account", "company", "loan", "bank",
	"payment", "consumer", "debt", "card", "information", "complaint",
	"mortgage", "collection", "service", "charge", "dispute", "balance",
	"interest", "fraud", "identity", "transaction", "statement", "letter",
	"agency", "refinance", "escrow", "foreclosure", "billing", "error",
}

// GenerateText produces approximately n bytes of zipf-skewed English-like
// text, deterministic in the seed — the stand-in for the paper's 400 MB
// online text corpus concatenated onto itself.
func GenerateText(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(vocabulary)-1))
	var b strings.Builder
	b.Grow(n + 16)
	col := 0
	for b.Len() < n {
		w := vocabulary[zipf.Uint64()]
		b.WriteString(w)
		col += len(w) + 1
		if col > 70 {
			b.WriteByte('\n')
			col = 0
		} else {
			b.WriteByte(' ')
		}
	}
	return []byte(b.String()[:n])
}
