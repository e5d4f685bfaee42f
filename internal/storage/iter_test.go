package storage

import (
	"reflect"
	"strings"
	"testing"

	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// cachedDirs returns the block directory the cache holds of every file,
// by file id.
func cachedDirs(c *BlockCache) map[uint64]fileDir {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[uint64]fileDir{}
	for id, f := range c.files {
		out[id] = f.dir
	}
	return out
}

// TestBlockScanEarlyClose: a scan closed after k blocks of a longer lane
// leaves the cache the directory a callback scan of a lane that ends
// after those k blocks leaves it, hands back every pooled batch, and
// reports the end of the stream from then on.
func TestBlockScanEarlyClose(t *testing.T) {
	all := testRows(9000)
	for _, spec := range cacheSpecs {
		t.Run(spec.Orientation+"/"+spec.Codec, func(t *testing.T) {
			fs := testFS(t)
			v1 := writeAll(t, fs, spec, all[:5000])
			v2 := appendRows(t, fs, spec, v1, all[5000:])
			inUse := types.VecPoolInUse()

			whole, k := NewBlockCache(), 0
			err := whole.ScanVecBatches(fs, spec, testSchema(), v1, allCols, nil, nil, func(vb *types.VecBatch) error {
				k++
				types.PutVecBatch(vb)
				return nil
			})
			if err != nil || k < 2 {
				t.Fatalf("callback scan of the first commit: %d blocks, err %v", k, err)
			}

			early := NewBlockCache()
			s, err := early.OpenScan(fs, spec, v2, allCols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for i := 0; i < k; i++ {
				vb, err := s.Next()
				if err != nil || vb == nil {
					t.Fatalf("block %d of %d: %v, err %v", i, k, vb, err)
				}
				rows += vb.Len()
				types.PutVecBatch(vb)
			}
			if rows != 5000 {
				t.Fatalf("%d blocks held %d rows, the first commit 5000", k, rows)
			}
			for id, d := range cachedDirs(early) {
				if len(d.blocks) != 0 {
					t.Errorf("file %d: %d blocks in the cache's directory while the scan is open", id, len(d.blocks))
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := cachedDirs(early), cachedDirs(whole); !reflect.DeepEqual(got, want) {
				t.Errorf("directory after an early Close:\n%+v\nafter a callback scan of as many blocks:\n%+v", got, want)
			}
			for i := 0; i < 2; i++ {
				if vb, err := s.Next(); vb != nil || err != nil {
					t.Fatalf("Next after Close = (%v, %v)", vb, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if got := types.VecPoolInUse(); got != inUse {
				t.Errorf("vector batches in use %d → %d", inUse, got)
			}
		})
	}
}

// TestBlockScanEndsAfterError: the block whose checksum fails is the
// error of one Next; the scan is over after it, not stuck on it.
func TestBlockScanEndsAfterError(t *testing.T) {
	spec := cacheSpecs[1]
	fs := testFS(t)
	sf := writeAll(t, fs, spec, testRows(9000))
	data, err := fs.ReadFile(sf.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xFF
	if err := fs.WriteFile(sf.Path, data, hdfs.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	inUse := types.VecPoolInUse()
	s, err := NewBlockCache().OpenScan(fs, spec, sf, allCols, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := 0
	for {
		vb, err := s.Next()
		if err != nil {
			if vb != nil || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("Next = (%v, %v), want the checksum error alone", vb, err)
			}
			break
		}
		if vb == nil {
			t.Fatalf("clean end of stream after %d blocks of a corrupted file", good)
		}
		good++
		types.PutVecBatch(vb)
	}
	if good == 0 {
		t.Fatal("the last block is the corrupted one, the first failed")
	}
	if vb, err := s.Next(); vb != nil || err != nil {
		t.Fatalf("Next after the error = (%v, %v)", vb, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := types.VecPoolInUse(); got != inUse {
		t.Errorf("vector batches in use %d → %d", inUse, got)
	}
}
