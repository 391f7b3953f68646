package spec

import (
	"fmt"
	"testing"

	"rtm/internal/workload"
)

// corpusTexts prints n distinct seed-1 layered models: the spec texts
// the serving path parses on every request that the front cache
// cannot answer.
func corpusTexts(tb testing.TB, n int) []string {
	tb.Helper()
	ms := workload.LayeredCorpus(1, n, nil)
	if len(ms) != n {
		tb.Fatalf("corpus: %d of %d classes", len(ms), n)
	}
	texts := make([]string, n)
	for i, m := range ms {
		texts[i] = Print(fmt.Sprintf("c%d", i), m)
	}
	return texts
}

// BenchmarkParseCorpus prices spec.Parse over a fixed slice of 128
// seed-1 layered classes; one op is one parse.
func BenchmarkParseCorpus(b *testing.B) {
	texts := corpusTexts(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}
