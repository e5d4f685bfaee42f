package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"
)

// lzCorpusDigest is the SHA-256 of lzCorpus's compressed streams,
// concatenated, as the compressor wrote them when it still cleared its
// hash table on every call. Reusing the table must not change one byte
// of any stream: files already on disk, the fuzz corpus and every
// stored-bytes figure depend on it.
const lzCorpusDigest = "eb91e30460a4c16872457e51d7029a75ccf5d3e86ed6cad494148a208c54e5a9"

// lzCorpus calls fn with every length from 0 to 70 000 at a stride,
// each input a window of one seeded buffer that starts a little after
// the last one: consecutive inputs share most of their bytes, so an
// entry an earlier call left, if taken for a position of this one,
// would find real matches and change the output.
func lzCorpus(fn func(src []byte)) {
	big := mixedBytes(11, 140_000)
	for n := 0; n <= 70_000; n += 509 {
		off := (n * 7) % 70_000
		fn(big[off : off+n])
	}
	// Small pages, as most pages of a COPY are.
	for n := 0; n < 600; n += 13 {
		fn(big[n : n+n])
	}
}

func TestLZCorpusDigestUnchanged(t *testing.T) {
	c, _ := Lookup("quicklz")
	h := sha256.New()
	var comp, got []byte
	lzCorpus(func(src []byte) {
		comp = c.Compress(comp[:0], src)
		h.Write(comp)
		var err error
		if got, err = c.Decompress(got[:0], comp); err != nil || !bytes.Equal(got, src) {
			t.Fatalf("%d bytes: round trip failed (err %v)", len(src), err)
		}
	})
	if sum := hex.EncodeToString(h.Sum(nil)); sum != lzCorpusDigest {
		t.Errorf("corpus digest = %s, want %s", sum, lzCorpusDigest)
	}
}

// TestLZTableResetsBeforeBaseOverflows runs a table whose base is just
// below MaxInt32: an input that still fits is compressed as a fresh
// table compresses it, and the next one, which would carry base past
// MaxInt32, clears the table first and is compressed as a fresh table
// compresses it too.
func TestLZTableResetsBeforeBaseOverflows(t *testing.T) {
	a, b := mixedBytes(12, 5000), mixedBytes(13, 3000)
	fresh := func(src []byte) []byte { return (&lzTable{base: 1}).compress(nil, src) }
	tb := &lzTable{base: math.MaxInt32 - int32(len(a))}
	for _, step := range []struct {
		src      []byte
		wantBase int32
	}{
		{a, math.MaxInt32},            // fits exactly: no reset
		{a, 1 + int32(len(a))},        // would pass MaxInt32: reset
		{b, 1 + int32(len(a)+len(b))}, // an ordinary reuse after it
	} {
		if got, want := tb.compress(nil, step.src), fresh(step.src); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: output differs from a fresh table's", len(step.src))
		}
		if tb.base != step.wantBase {
			t.Fatalf("base = %d, want %d", tb.base, step.wantBase)
		}
	}
}

// TestLZConcurrentCompress compresses different inputs on several
// goroutines at once, each through the shared pool of tables: every
// stream decompresses to its input and is a fresh table's stream.
func TestLZConcurrentCompress(t *testing.T) {
	c, _ := Lookup("quicklz")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				src := mixedBytes(int64(100*g+k), 37*k+g)
				comp := c.Compress(nil, src)
				got, err := c.Decompress(nil, comp)
				if err != nil || !bytes.Equal(got, src) {
					errs <- fmt.Errorf("goroutine %d, input %d: round trip failed (err %v)", g, k, err)
					return
				}
				if !bytes.Equal(comp, (&lzTable{base: 1}).compress(nil, src)) {
					errs <- fmt.Errorf("goroutine %d, input %d: output differs from a fresh table's", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
