package session

import (
	"fmt"
	"sync"
	"testing"
)

func TestPlanCacheHitMissInvalidate(t *testing.T) {
	c := NewPlanCache(4)
	if _, ok := c.Get("q1", 0); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("q1", 0, []byte("plan-a"))
	enc, ok := c.Get("q1", 0)
	if !ok || string(enc.([]byte)) != "plan-a" {
		t.Fatalf("want hit plan-a, got %q ok=%v", enc, ok)
	}
	// Same key under a newer catalog version: stale entry is invalidated.
	if _, ok := c.Get("q1", 1); ok {
		t.Fatal("stale entry served under newer version")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Size != 0 {
		t.Fatalf("stale entry still cached (size %d)", st.Size)
	}
	// Re-planned under the new version.
	c.Put("q1", 1, []byte("plan-b"))
	if enc, ok := c.Get("q1", 1); !ok || string(enc.([]byte)) != "plan-b" {
		t.Fatalf("want plan-b, got %q ok=%v", enc, ok)
	}
}

func TestPlanCacheOldSnapshotDoesNotClobberNewer(t *testing.T) {
	c := NewPlanCache(4)
	c.Put("q", 5, []byte("new"))
	// A serializable transaction with an old snapshot misses but must not
	// delete or overwrite the newer entry.
	if _, ok := c.Get("q", 3); ok {
		t.Fatal("old snapshot must not hit a newer entry")
	}
	c.Put("q", 3, []byte("old"))
	if enc, ok := c.Get("q", 5); !ok || string(enc.([]byte)) != "new" {
		t.Fatalf("newer entry lost: %q ok=%v", enc, ok)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2)
	c.Put("a", 0, []byte("a"))
	c.Put("b", 0, []byte("b"))
	c.Get("a", 0) // a most recent
	c.Put("c", 0, []byte("c"))
	if _, ok := c.Get("b", 0); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", i%24)
				ver := uint64(i % 3)
				if enc, ok := c.Get(key, ver); ok && len(enc.([]byte)) == 0 {
					t.Error("hit with empty payload")
					return
				}
				c.Put(key, ver, []byte{byte(g), byte(i)})
			}
		}(g)
	}
	wg.Wait()
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	p := &Prepared{Name: "Q1", NumParams: 2}
	if err := r.Put(p); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(&Prepared{Name: "q1"}); err == nil {
		t.Fatal("duplicate name accepted (case-insensitive)")
	}
	got, err := r.Get("q1")
	if err != nil || got != p {
		t.Fatalf("get: %v %+v", err, got)
	}
	if err := got.ValidateArgCount(1); err == nil {
		t.Fatal("wrong arg count accepted")
	}
	if err := got.ValidateArgCount(2); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("nope"); err == nil {
		t.Fatal("removing unknown statement should error")
	}
	if err := r.Remove("Q1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(p); err != nil {
		t.Fatal(err)
	}
	r.Clear()
	if _, err := r.Get("q1"); err == nil {
		t.Fatal("clear left statements behind")
	}
}

func TestFingerprintDistinguishesFlagsAndSegments(t *testing.T) {
	a := Fingerprint("SELECT 1", 4, false, false)
	b := Fingerprint("SELECT 1", 8, false, false)
	c := Fingerprint("SELECT 1", 4, true, false)
	if a == b || a == c || b == c {
		t.Fatalf("fingerprints collide: %q %q %q", a, b, c)
	}
}
