package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hawq/internal/catalog"
	"hawq/internal/client"
	"hawq/internal/compress"
	"hawq/internal/engine"
	"hawq/internal/executor"
	"hawq/internal/hdfs"
	"hawq/internal/interconnect"
	"hawq/internal/resource"
	"hawq/internal/sqlparser"
	"hawq/internal/storage"
	"hawq/internal/tpch"
	"hawq/internal/tx"
	"hawq/internal/types"
	"hawq/internal/wal"
)

// Side probes: each times one layer's public functions directly, on the
// workload's own cluster (dispatch floors, catalog, tx, client) or on
// scratch data generated from the seed (storage, compress, hdfs,
// interconnect, wal). The scratch-data probes do not depend on the
// workload, but the driver's contract wants every per-layer name from
// every traced run, and a value carried over from another run would read
// exactly the same twice, which the driver rejects for a time. So they
// run every time and are sized to cost about a second together: 20 k
// rows per format and a 4 MiB stream are enough for a steady median.
const (
	probeRows        = 20000
	probeDir         = "/bench_probe"
	probeStreamBytes = 4 << 20
	probeFan         = 4
)

// timeEach runs fn n times and returns each call's microseconds.
func timeEach(n int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := wall.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, us(wall.Since(start)))
	}
	return out, nil
}

// timeBatches runs fn in n batches of size per and returns each batch's
// per-call microseconds; for calls too short to time one by one.
func timeBatches(n, per int, fn func() error) ([]float64, error) {
	return timeEach(n, func() error {
		for i := 0; i < per; i++ {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
}

func runProbes(m metricSet, e *engine.Engine, sp *stepper, cfg config) error {
	for _, probe := range []func(metricSet, *engine.Engine, *stepper, config) error{
		probeDispatchFloors, probeCatalog, probeTx, probeResource, probeClient,
		probeStorage, probeInterconnect, probeWAL,
	} {
		if err := probe(m, e, sp, cfg); err != nil {
			return err
		}
	}
	return nil
}

// probeDispatchFloors dispatches a 4-segment gather and a 1-QE key
// lookup against the empty table: pure gang launch, stream set-up and
// teardown, no data.
func probeDispatchFloors(m metricSet, e *engine.Engine, sp *stepper, _ config) error {
	for _, f := range []struct{ metric, sql string }{
		{"cluster.dispatch_floor_us", "SELECT count(*) FROM " + emptyTable},
		{"cluster.dispatch_direct_floor_us", "SELECT v FROM " + emptyTable + " WHERE k = 1"},
	} {
		parsed, err := sqlparser.ParseOne(f.sql)
		if err != nil {
			return err
		}
		t := e.Cluster().TxMgr.Begin(tx.ReadCommitted)
		pristine, err := sp.planner(t.Snapshot(), nil, false).PlanSelect(parsed.(*sqlparser.SelectStmt))
		t.Abort()
		if err != nil {
			return err
		}
		xs, err := timeEach(200, func() error {
			pl, err := pristine.Clone()
			if err != nil {
				return err
			}
			_, err = e.Cluster().Dispatch(context.Background(), pl, nil)
			return err
		})
		if err != nil {
			return err
		}
		m.put(perLayer, f.metric, median(xs), len(xs))
	}
	return nil
}

// probeCatalog times LookupTable + AllSegFiles per user table.
func probeCatalog(m metricSet, e *engine.Engine, _ *stepper, _ config) error {
	cl := e.Cluster()
	t := cl.TxMgr.Begin(tx.ReadCommitted)
	defer t.Abort()
	snap := t.Snapshot()
	var names []string
	for _, d := range cl.Cat().ListTables(snap) {
		names = append(names, d.Name)
	}
	i := 0
	xs, err := timeBatches(200, 10, func() error {
		d, err := cl.Cat().LookupTable(snap, names[i%len(names)])
		i++
		if err != nil {
			return err
		}
		cl.Cat().AllSegFiles(snap, d.OID)
		return nil
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "catalog.lookup_us", median(xs)/10, len(xs))
	return nil
}

// probeTx times a read-only Begin + Commit.
func probeTx(m metricSet, e *engine.Engine, _ *stepper, _ config) error {
	xs, err := timeBatches(200, 10, func() error {
		return e.Cluster().TxMgr.Begin(tx.ReadCommitted).Commit()
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "tx.begin_commit_us", median(xs)/10, len(xs))
	return nil
}

// probeResource times an uncontended queue Acquire + Release.
func probeResource(m metricSet, _ *engine.Engine, _ *stepper, _ config) error {
	mgr := resource.NewManager(wall)
	if err := mgr.Create("probe", serveQueueActive, 0); err != nil {
		return err
	}
	q := mgr.Lookup("probe")
	xs, err := timeBatches(200, 100, func() error {
		if err := q.Acquire(context.Background()); err != nil {
			return err
		}
		q.Release()
		return nil
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "resource.acquire_us", median(xs)/100, len(xs))
	return nil
}

// probeClient times a master-only statement over the wire and in
// process; the difference is the wire protocol's round trip.
func probeClient(m metricSet, e *engine.Engine, _ *stepper, _ config) error {
	const stmt = "SHOW resource_queue"
	srv, err := client.NewServer(e, "127.0.0.1:0")
	if err != nil {
		return err
	}
	conn, err := client.Connect(srv.Addr())
	if err != nil {
		return errors.Join(err, srv.Close())
	}
	overWire, err := timeEach(500, func() error {
		_, err := conn.QueryOne(stmt)
		return err
	})
	if err = errors.Join(err, conn.Close(), srv.Close()); err != nil {
		return err
	}
	s := e.NewSession()
	inProcess, err := timeEach(500, func() error {
		_, err := s.Query(stmt)
		return err
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "client.roundtrip_us", median(overWire)-median(inProcess), len(overWire))
	return nil
}

// lineitemSegFile writes rows to a scratch segment file in the given
// format and returns the file with its committed lengths.
func lineitemSegFile(fs *hdfs.FileSystem, spec catalog.StorageSpec, schema *types.Schema, rows []types.Row) (catalog.SegFile, error) {
	sf := catalog.SegFile{Path: probeDir + "/" + spec.Orientation + "-" + spec.Codec}
	w, err := storage.NewWriter(fs, spec, schema, sf, hdfs.CreateOptions{})
	if err != nil {
		return sf, err
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			return sf, errors.Join(err, w.Close())
		}
	}
	if err := w.Close(); err != nil {
		return sf, err
	}
	sf.LogicalLen, sf.ColLens = w.Lens()
	sf.Tuples = w.Tuples()
	return sf, nil
}

// segFileBytes is the stored size of a scratch segment file.
func segFileBytes(sf catalog.SegFile) int64 {
	if len(sf.ColLens) == 0 {
		return sf.LogicalLen
	}
	var n int64
	for _, l := range sf.ColLens {
		n += l
	}
	return n
}

// probeStorage writes generated lineitem rows in the three formats, then
// scans the column file with Q6's projection (decoded batches, and
// encoded vectors under Q6's zone predicates), runs the codec over the
// uncompressed row pages, and times HDFS reads and appends.
func probeStorage(m metricSet, e *engine.Engine, _ *stepper, cfg config) error {
	fs := e.Cluster().FS
	defer fs.Delete(probeDir, true)
	schema := tpch.Schemas()["lineitem"]
	n := int(probeRows * cfg.scale)
	if n < 1000 {
		n = 1000
	}
	rows := lineitemPool(cfg.seed, n)
	mrows := func(d float64) float64 { return float64(n) / d } // rows per µs = Mrows/s

	files := map[string]catalog.SegFile{}
	var writeUS float64
	for _, f := range []struct{ orientation, metric string }{
		{catalog.OrientRow, "storage.bytes_per_row_ao"},
		{catalog.OrientColumn, "storage.bytes_per_row_co"},
		{catalog.OrientParquet, "storage.bytes_per_row_pq"},
	} {
		start := wall.Now()
		sf, err := lineitemSegFile(fs, catalog.StorageSpec{Orientation: f.orientation, Codec: "quicklz"}, schema, rows)
		if err != nil {
			return err
		}
		writeUS += us(wall.Since(start))
		files[f.orientation] = sf
		m.put(perLayer, f.metric, float64(segFileBytes(sf))/float64(n), 0)
	}
	m.put(perLayer, "storage.write_mrows_per_s", mrows(writeUS/3), 3)

	// Q6 reads l_quantity, l_extendedprice, l_discount, l_shipdate.
	co := files[catalog.OrientColumn]
	spec := catalog.StorageSpec{Orientation: catalog.OrientColumn, Codec: "quicklz"}
	proj := []int{4, 5, 6, 10}
	scan, err := timeEach(5, func() error {
		got := 0
		err := storage.ScanBatches(fs, spec, schema, co, proj, func(b *types.Batch) error {
			got += b.Len()
			types.PutBatch(b)
			return nil
		})
		if err == nil && got != n {
			err = fmt.Errorf("scan probe read %d rows, wrote %d", got, n)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "storage.scan_mrows_per_s", mrows(median(scan)), len(scan))
	preds := []storage.ZonePred{
		{Col: 3, Op: storage.ZoneGe, Val: types.MustParseDate("1994-01-01")},
		{Col: 3, Op: storage.ZoneLt, Val: types.MustParseDate("1995-01-01")},
		{Col: 0, Op: storage.ZoneLt, Val: types.NewDecimal(2400, 2)},
	}
	vec, err := timeEach(5, func() error {
		return storage.ScanVecBatches(fs, spec, schema, co, proj, preds, nil, func(vb *types.VecBatch) error {
			types.PutVecBatch(vb)
			return nil
		})
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "storage.scan_vec_mrows_per_s", mrows(median(vec)), len(vec))

	if err := probeCompress(m, fs, schema, rows); err != nil {
		return err
	}
	return probeHDFS(m, fs, files)
}

// probeCompress runs quicklz over real lineitem page bytes: the row
// format's pages written with no codec.
func probeCompress(m metricSet, fs *hdfs.FileSystem, schema *types.Schema, rows []types.Row) error {
	raw, err := lineitemSegFile(fs, catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"}, schema, rows)
	if err != nil {
		return err
	}
	pages, err := fs.ReadFile(raw.Path)
	if err != nil {
		return err
	}
	codec, err := compress.Lookup("quicklz")
	if err != nil {
		return err
	}
	var packed [][]byte
	comp, err := timeEach(5, func() error {
		packed = packed[:0]
		for off := 0; off < len(pages); off += storage.DefaultBlockTarget {
			end := min(off+storage.DefaultBlockTarget, len(pages))
			packed = append(packed, codec.Compress(nil, pages[off:end]))
		}
		return nil
	})
	if err != nil {
		return err
	}
	decomp, err := timeEach(5, func() error {
		for _, p := range packed {
			if _, err := codec.Decompress(nil, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	mbs := func(d float64) float64 { return float64(len(pages)) / d } // bytes per µs = MB/s
	m.put(perLayer, "compress.quicklz_compress_mb_s", mbs(median(comp)), len(comp))
	m.put(perLayer, "compress.quicklz_decompress_mb_s", mbs(median(decomp)), len(decomp))
	return nil
}

// probeHDFS times whole-file reads of the scratch row file and
// Append + 64 KiB Write + Close on a scratch file.
func probeHDFS(m metricSet, fs *hdfs.FileSystem, files map[string]catalog.SegFile) error {
	path := files[catalog.OrientRow].Path
	var size int
	reads, err := timeEach(10, func() error {
		data, err := fs.ReadFile(path)
		size = len(data)
		return err
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "hdfs.read_mb_s", float64(size)/median(reads), len(reads))

	appendPath := probeDir + "/append"
	if err := fs.WriteFile(appendPath, nil, hdfs.CreateOptions{}); err != nil {
		return err
	}
	chunk := make([]byte, 64<<10)
	appends, err := timeEach(50, func() error {
		w, err := fs.Append(appendPath, hdfs.CreateOptions{})
		if err != nil {
			return err
		}
		if _, err := w.Write(chunk); err != nil {
			return errors.Join(err, w.Close())
		}
		return w.Close()
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "hdfs.append_us", median(appends), len(appends))
	return nil
}

// probeInterconnect builds its own UDP nodes: one pair streams
// motion-payload-sized sends for throughput, and a 4×4 fan opens, sends
// one message per stream, and closes, for stream set-up cost.
func probeInterconnect(m metricSet, _ *engine.Engine, _ *stepper, cfg config) error {
	book := interconnect.NewAddrBook()
	nodes := make([]*interconnect.UDPNode, 2*probeFan)
	for i := range nodes {
		n, err := interconnect.NewUDPNode(interconnect.SegID(i), book, interconnect.UDPConfig{})
		if err != nil {
			return err
		}
		defer n.Close()
		nodes[i] = n
	}
	senders, receivers := nodes[:probeFan], nodes[probeFan:]
	senderIDs := make([]interconnect.SegID, probeFan)
	for i, n := range senders {
		senderIDs[i] = n.Seg()
	}
	var query uint64

	// fan runs one motion: every sender opens a stream to every receiver,
	// sends msgs payloads on each, and closes; receivers drain to EOS.
	fan := func(senders []*interconnect.UDPNode, receivers []*interconnect.UDPNode, ids []interconnect.SegID, msgs int, payload []byte) error {
		query++
		var wg sync.WaitGroup
		errs := make([]error, len(senders)+len(receivers))
		for ri, r := range receivers {
			recv, err := r.OpenRecv(query, 1, ids)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func(slot int, recv interconnect.RecvStream) {
				defer wg.Done()
				defer recv.Close()
				for {
					_, done, err := recv.Recv()
					if err != nil || done {
						errs[slot] = err
						return
					}
				}
			}(ri, recv)
		}
		for si, s := range senders {
			wg.Add(1)
			go func(slot int, s *interconnect.UDPNode) {
				defer wg.Done()
				for _, r := range receivers {
					out, err := s.OpenSend(interconnect.StreamID{Query: query, Motion: 1, Sender: s.Seg(), Receiver: r.Seg()})
					if err != nil {
						errs[slot] = err
						return
					}
					for i := 0; i < msgs && err == nil; i++ {
						err = out.Send(payload)
					}
					if err = errors.Join(err, out.Close()); err != nil {
						errs[slot] = err
						return
					}
				}
			}(len(receivers)+si, s)
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	payload := make([]byte, executor.DefaultMotionPayload)
	msgs := int(float64(probeStreamBytes)*cfg.scale) / len(payload)
	stream, err := timeEach(3, func() error {
		return fan(senders[:1], receivers[:1], senderIDs[:1], msgs, payload)
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "interconnect.stream_mb_s", float64(msgs*len(payload))/median(stream), len(stream))

	setup, err := timeEach(30, func() error {
		return fan(senders, receivers, senderIDs, 1, payload[:64])
	})
	if err != nil {
		return err
	}
	m.put(perLayer, "interconnect.stream_setup_us", median(setup), len(setup))
	return nil
}

// probeWAL opens a log on a real directory and times Append + Commit:
// one record frame and one fsync.
func probeWAL(m metricSet, _ *engine.Engine, _ *stepper, cfg config) error {
	dir, err := scratchDir(cfg, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := wal.NewDirDisk(filepath.Join(dir, "log"))
	if err != nil {
		return err
	}
	log, _, err := wal.Open(disk, wal.Options{})
	if err != nil {
		return err
	}
	var lsn uint64
	xs, err := timeEach(100, func() error {
		lsn++
		if err := log.Append(tx.Record{LSN: lsn, Type: tx.RecCommit, XID: tx.XID(lsn)}); err != nil {
			return err
		}
		return log.Commit(lsn)
	})
	if err = errors.Join(err, log.Close()); err != nil {
		return err
	}
	m.put(perLayer, "wal.commit_us", median(xs), len(xs))
	return nil
}
