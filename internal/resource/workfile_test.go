package resource

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hawq/internal/types"
)

func testRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt64(int64(i)),
			types.NewString("payload-payload-payload-payload"),
			types.NewInt64(int64(i * 7)),
		}
	}
	return rows
}

func roundTrip(t *testing.T, n int) {
	t.Helper()
	st := NewStore(t.TempDir(), "test")
	defer st.Cleanup()
	f, err := st.Create()
	if err != nil {
		t.Fatal(err)
	}
	want := testRows(n)
	for _, r := range want {
		if err := f.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if f.Rows() != int64(n) {
		t.Fatalf("Rows() = %d, want %d", f.Rows(), n)
	}
	if n > 0 && f.Bytes() == 0 {
		t.Fatal("Bytes() = 0 after appends")
	}
	r, err := f.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	b := types.GetBatch(0)
	defer types.PutBatch(b)
	got := 0
	for {
		ok, err := r.Next(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			w := want[got]
			if len(row) != len(w) || row[0].I != w[0].I || row[1].S != w[1].S || row[2].I != w[2].I {
				t.Fatalf("row %d mismatch: got %v want %v", got, row, w)
			}
			got++
		}
	}
	if got != n {
		t.Fatalf("read %d rows, want %d", got, n)
	}
}

func TestWorkfileRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, types.DefaultBatchRows, 3*types.DefaultBatchRows + 17} {
		roundTrip(t, n)
	}
}

func TestWorkfileSpillStats(t *testing.T) {
	files0, bytes0 := SpillStats()
	st := NewStore(t.TempDir(), "stats")
	defer st.Cleanup()
	f, err := st.Create()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRows(10) {
		if err := f.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	files1, bytes1 := SpillStats()
	if files1 != files0+1 {
		t.Fatalf("spill files: %d -> %d, want +1", files0, files1)
	}
	if bytes1 <= bytes0 {
		t.Fatalf("spill bytes did not grow: %d -> %d", bytes0, bytes1)
	}
}

func TestWorkfileCleanupRemovesEverything(t *testing.T) {
	root := t.TempDir()
	st := NewStore(root, "clean")
	var files []*File
	for i := 0; i < 3; i++ {
		f, err := st.Create()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range testRows(5) {
			if err := f.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		files = append(files, f)
	}
	// Finish only some of them: Cleanup must handle half-written files.
	if err := files[0].Finish(); err != nil {
		t.Fatal(err)
	}
	if st.Live() != 3 {
		t.Fatalf("Live() = %d, want 3", st.Live())
	}
	left, err := Leftovers(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("Leftovers before cleanup: %v", left)
	}
	st.Cleanup()
	st.Cleanup() // idempotent
	left, err = Leftovers(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("Leftovers after cleanup: %v", left)
	}
	if st.Live() != 0 {
		t.Fatalf("Live() after cleanup = %d", st.Live())
	}
	// Batch pool balance: unfinished files' buffers were returned.
	gets, puts := types.PoolStats()
	if gets-puts < 0 {
		t.Fatalf("pool imbalance: gets=%d puts=%d", gets, puts)
	}
}

func TestWorkfileRemove(t *testing.T) {
	root := t.TempDir()
	st := NewStore(root, "rm")
	defer st.Cleanup()
	f, err := st.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AppendRow(testRows(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	f.Remove()
	f.Remove() // idempotent
	if st.Live() != 0 {
		t.Fatalf("Live() after Remove = %d", st.Live())
	}
	dirs, err := Leftovers(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("workfile survived Remove: %v", ents)
		}
	}
}

func TestWorkfileReadBeforeFinish(t *testing.T) {
	st := NewStore(t.TempDir(), "early")
	defer st.Cleanup()
	f, err := st.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.NewReader(); err == nil {
		t.Fatal("NewReader before Finish must fail")
	}
}

// TestWorkfileFrameLengthMismatchIsCorrupt: frames are stored raw, so a
// stored length that differs from the raw one is damage, not a
// compressed frame.
func TestWorkfileFrameLengthMismatchIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frames")
	if err := os.WriteFile(path, []byte{4, 2, 0xAA, 0xBB}, 0o644); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r := &Reader{f: fh, br: bufio.NewReader(fh)}
	defer r.Close()
	b := types.GetBatch(0)
	defer types.PutBatch(b)
	if ok, err := r.Next(b); err == nil || ok || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Next = %v, %v; want a corrupt-frame error", ok, err)
	}
}

// FuzzWorkfileFrame feeds arbitrary bytes through the frame reader: it
// must reject corrupt frames with an error, never panic or over-read.
func FuzzWorkfileFrame(f *testing.F) {
	// Seed with a real workfile's bytes.
	st := NewStore(f.TempDir(), "fuzz")
	defer st.Cleanup()
	wf, err := st.Create()
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range testRows(20) {
		if err := wf.AppendRow(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := wf.Finish(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(wf.f.Name())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "frames")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r := &Reader{f: fh, br: bufio.NewReader(fh)}
		b := types.GetBatch(0)
		for {
			ok, err := r.Next(b)
			if err != nil || !ok {
				break
			}
		}
		types.PutBatch(b)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
