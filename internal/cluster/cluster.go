// Package cluster implements the HAWQ runtime topology (§2): a master
// (QD side), stateless segments collocated with HDFS DataNodes, the
// dispatcher that starts gangs of QEs and runs sliced plans, the fault
// detector that marks failed segments "down" and fails sessions over to
// the remaining segments, and the lane manager implementing the
// swimming-lane concurrent insert protocol (§5.4).
//
// Everything runs in one process: hosts are goroutines, but the
// interconnect uses real UDP/TCP sockets on loopback, so the transport
// behaves like the paper's.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/clock"
	"hawq/internal/executor"
	"hawq/internal/hdfs"
	"hawq/internal/interconnect"
	"hawq/internal/obs"
	"hawq/internal/plan"
	"hawq/internal/resource"
	"hawq/internal/retry"
	"hawq/internal/storage"
	"hawq/internal/tx"
	"hawq/internal/types"
	"hawq/internal/wal"
)

// Config sizes a cluster.
type Config struct {
	// Segments is the number of compute segments.
	Segments int
	// DataNodes is the HDFS cluster size; 0 means one per segment.
	DataNodes int
	// Interconnect selects "udp" (default) or "tcp".
	Interconnect string
	// UDP tunes the UDP interconnect (loss injection etc.).
	UDP interconnect.UDPConfig
	// Clock drives failure-detector timing (segment blacklist backoff)
	// and the interconnect deadlines; nil means the wall clock. Chaos
	// tests inject clock.Sim here.
	Clock clock.Clock
	// Reprobe is the backoff policy applied to repeatedly-failing
	// segments: after the first failure a replacement endpoint is
	// offered immediately, but each further failure pushes the
	// segment's re-probe time out exponentially so a flapping host does
	// not absorb every restart. Zero values get retry defaults.
	Reprobe retry.Policy
	// Restart is the query-restart policy the session layer applies
	// after a segment failure (§2.6: fail the in-flight query, mark the
	// segment down, restart elsewhere). Zero values get retry defaults.
	Restart retry.Policy
	// HDFS overrides the storage configuration; zero values get
	// defaults matched to the cluster size.
	HDFS hdfs.Config
	// SpillDir is the base directory for segment-local spill files
	// (empty: system temp).
	SpillDir string
	// WALDisk is the device the master's catalog WAL is persisted on
	// (wal.NewDirDisk for real files, wal.NewFaultDisk under the crash
	// harness). nil keeps the log volatile and in-memory, as before this
	// option existed — tests that do not care about durability pay
	// nothing. When set, cluster boot runs ARIES-lite recovery: restore
	// the newest checkpoint, redo committed transactions past it, and
	// discard in-flight ones (§2.6).
	WALDisk wal.Disk
	// WALGroupWindow batches commit fsyncs: the group-commit leader
	// waits this long (on Clock) for followers before one fsync covers
	// the batch. 0 syncs per commit.
	WALGroupWindow time.Duration

	// Background maintenance (consumed by the engine's task scheduler;
	// the cluster itself only carries them). DisableTasks turns the
	// scheduler off entirely. TaskSweep opts into scheduler-originated
	// work, AO small-file compaction, which stays off by default so a
	// test's segment files change only when it changes them.
	DisableTasks bool
	TaskSweep    bool
	// TaskLease is how long a task claim is honoured (0: 30s).
	TaskLease time.Duration
}

// Cluster is a running HAWQ cluster. The active catalog and WAL are held
// behind atomic pointers (see Cat and WAL): Promote swaps them while
// queries are dispatching, so direct fields would be a data race.
type Cluster struct {
	cfg    Config
	FS     *hdfs.FileSystem
	TxMgr  *tx.Manager
	Locks  *tx.LockManager
	master *Master
	cat    atomic.Pointer[catalog.Catalog]
	wal    atomic.Pointer[tx.WAL]

	book      *interconnect.AddrBook
	qdNode    interconnect.Node
	segments  []*Segment
	nextQuery atomic.Uint64
	clk       clock.Clock

	lanes *laneManager
	// External is the PXF binding used by external-table scans.
	External executor.ExternalEngine

	mu      sync.Mutex
	standby *Standby
	closed  bool
	// promoteHook runs after a successful Promote (outside the cluster
	// lock): the engine resumes its background task scheduler here so
	// reclaimed leases are processed on the promoted catalog.
	promoteHook atomic.Pointer[func()]
}

// SetPromoteHook registers a function Promote calls after swapping in
// the standby catalog (nil clears it).
func (c *Cluster) SetPromoteHook(fn func()) {
	if fn == nil {
		c.promoteHook.Store(nil)
		return
	}
	c.promoteHook.Store(&fn)
}

// Config returns the boot configuration (read-only).
func (c *Cluster) Config() Config { return c.cfg }

// Segment is one stateless compute segment (§2.6): it holds no private
// persistent state, so any alive segment can substitute for a failed one.
type Segment struct {
	ID        int
	LocalHost string // collocated DataNode
	// cache holds decoded blocks of the HDFS files this segment's QEs
	// scan. It is soft state: validated against HDFS on every scan, lost
	// when the process dies (Kill), never needed for correctness. The
	// pointer never changes after New; Kill empties the cache in place.
	cache *storage.BlockCache

	mu   sync.Mutex
	node interconnect.Node
	down bool
	// failures counts consecutive detector-observed failures; it drives
	// the re-probe blacklist and resets on explicit Recover.
	failures int
	// retryAt is when the blacklist next allows a replacement endpoint
	// for this segment. The first failure sets it to "now" so a single
	// fault fails over immediately; repeats back off exponentially.
	retryAt time.Time
}

// checkpointEvery is how many WAL records a durable master logs between
// catalog checkpoints: some 0.2 s of 500-row lineitem COPYs, which keeps
// the log at most nine 256 KiB segments long (EXPERIMENTS.md).
const checkpointEvery = 500

// New boots a cluster: HDFS, catalog+WAL, transaction machinery,
// interconnect endpoints, and the segment registry.
func New(cfg Config) (*Cluster, error) {
	if cfg.Segments <= 0 {
		return nil, fmt.Errorf("cluster: need at least one segment")
	}
	switch cfg.Interconnect {
	case "", "udp", "tcp":
	default:
		return nil, fmt.Errorf("cluster: unknown interconnect %q (want udp or tcp)", cfg.Interconnect)
	}
	if cfg.DataNodes <= 0 {
		cfg.DataNodes = cfg.Segments
	}
	h := cfg.HDFS
	if h.DataNodes == 0 {
		h.DataNodes = cfg.DataNodes
	}
	fs, err := hdfs.New(h)
	if err != nil {
		return nil, err
	}
	m, err := OpenMaster(MasterOptions{
		Disk:            cfg.WALDisk,
		GroupWindow:     cfg.WALGroupWindow,
		CheckpointEvery: checkpointEvery,
		Clock:           cfg.Clock,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		FS:     fs,
		TxMgr:  m.TxMgr,
		Locks:  tx.NewLockManager(),
		master: m,
		book:   interconnect.NewAddrBook(),
		lanes:  newLaneManager(),
		clk:    clock.Default(cfg.Clock),
	}
	c.cat.Store(m.Cat)
	c.wal.Store(m.WAL)
	// Plan-relevant catalog writes mark their transaction in the manager,
	// whose commit path bumps the snapshot-visible catalog version that
	// keys the engine's plan cache.
	m.Cat.SetMutationHook(c.TxMgr.MarkCatalogChange)
	if c.qdNode, err = c.newNode(plan.QDSegment); err != nil {
		return nil, err
	}
	boot := c.TxMgr.Begin(tx.ReadCommitted)
	// A recovered catalog already carries segment rows; re-register only
	// what is missing and flip recovered segments back to "up" (the
	// processes restart with the master).
	known := map[int]catalog.SegmentInfo{}
	for _, si := range c.Cat().Segments(boot.Snapshot()) {
		known[si.ID] = si
	}
	for i := 0; i < cfg.Segments; i++ {
		seg := &Segment{ID: i, LocalHost: fmt.Sprintf("dn%d", i%cfg.DataNodes), cache: storage.NewBlockCache()}
		if seg.node, err = c.newNode(interconnect.SegID(i)); err != nil {
			boot.Abort()
			return nil, err
		}
		c.segments = append(c.segments, seg)
		if si, ok := known[i]; ok {
			if si.Status != "up" {
				if err := c.Cat().SetSegmentStatus(boot, i, "up"); err != nil {
					boot.Abort()
					return nil, err
				}
			}
		} else {
			c.Cat().RegisterSegment(boot, catalog.SegmentInfo{ID: i, Host: seg.LocalHost, Port: 0, Status: "up"})
		}
	}
	if err := boot.Commit(); err != nil {
		return nil, err
	}
	return c, nil
}

// Cat returns the active catalog. Always re-read it per statement: after
// a standby promotion the pointer changes.
func (c *Cluster) Cat() *catalog.Catalog { return c.cat.Load() }

// WAL returns the active write-ahead log (the shipping side; durability
// lives behind it in the wal.Log sink).
func (c *Cluster) WAL() *tx.WAL { return c.wal.Load() }

// Log returns the durable log, nil for volatile clusters.
func (c *Cluster) Log() *wal.Log { return c.master.Log }

func (c *Cluster) newNode(id interconnect.SegID) (interconnect.Node, error) {
	if c.cfg.Interconnect == "tcp" {
		return interconnect.NewTCPNode(id, c.book, interconnect.TCPConfig{Clock: c.cfg.Clock})
	}
	return interconnect.NewUDPNode(id, c.book, c.cfg.UDP)
}

// ErrSegmentBlacklisted marks failover refusals for segments still
// inside their re-probe backoff window; the session layer treats it as
// transient and retries on the restart policy's curve.
var ErrSegmentBlacklisted = errors.New("blacklisted")

// NumSegments returns the segment count.
func (c *Cluster) NumSegments() int { return len(c.segments) }

// Clock returns the cluster's time source (wall by default, clock.Sim
// under the chaos harness).
func (c *Cluster) Clock() clock.Clock { return c.clk }

// SpillDir returns the base directory for segment-local spill files;
// tests and the chaos harness scan it with resource.Leftovers to
// verify query teardown removed every workfile.
func (c *Cluster) SpillDir() string { return c.cfg.SpillDir }

// RestartPolicy returns the query-restart retry policy with the
// cluster clock filled in, so session-layer restarts back off on the
// same (possibly simulated) time base as the fault detector.
func (c *Cluster) RestartPolicy() retry.Policy {
	p := c.cfg.Restart
	if p.Clock == nil {
		p.Clock = c.clk
	}
	return p
}

// Segment returns the i'th segment.
func (c *Cluster) Segment(i int) *Segment { return c.segments[i] }

// DropCaches empties every segment's block cache, so the next scan of
// anything reads HDFS: an operation for tests and operators that need a
// cold read, not a setting.
func (c *Cluster) DropCaches() {
	for _, s := range c.segments {
		s.cache.Drop()
	}
}

// Close shuts the cluster down, returning the combined endpoint close
// errors.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.master.Close()
	err = errors.Join(err, c.qdNode.Close())
	c.DropCaches()
	for _, s := range c.segments {
		s.mu.Lock()
		if s.node != nil {
			err = errors.Join(err, s.node.Close())
		}
		s.mu.Unlock()
	}
	return err
}

// Down reports whether the segment is marked down.
func (s *Segment) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Kill simulates a segment process failure: its interconnect endpoint
// dies, its block cache is gone with the process, and future dispatches
// fail until the fault detector marks it down and sessions fail over.
func (s *Segment) Kill() {
	s.cache.Drop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.node != nil {
		// A simulated crash does not care how the endpoint died.
		//hawqcheck:ignore errdrop
		s.node.Close()
		s.node = nil
	}
}

// SetLossRate adjusts injected packet loss on this segment's UDP
// interconnect endpoint — rate 1 silences the segment entirely,
// modeling a stalled peer (§4.5). A no-op for dead segments and TCP
// clusters.
func (s *Segment) SetLossRate(rate float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u, ok := s.node.(*interconnect.UDPNode); ok {
		u.SetLossRate(rate)
	}
}

// SetLossRate adjusts injected packet loss on every UDP interconnect
// endpoint (the QD's and every segment's). The chaos scheduler uses it
// to model cluster-wide loss bursts at runtime; a no-op on TCP
// clusters.
func (c *Cluster) SetLossRate(rate float64) {
	if u, ok := c.qdNode.(*interconnect.UDPNode); ok {
		u.SetLossRate(rate)
	}
	for _, s := range c.segments {
		s.SetLossRate(rate)
	}
}

// Alive reports whether the segment process responds (the fault
// detector's health probe).
func (s *Segment) Alive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.node != nil
}

// FaultCheck is the master's fault detector pass (§2.6): dead segments
// are marked "down" in the system catalog, and future queries are not
// dispatched to them — each session fails the segment's work over to a
// replacement endpoint on a surviving host.
func (c *Cluster) FaultCheck() []int {
	var marked []int
	for _, s := range c.segments {
		if !s.Alive() && !s.Down() {
			s.mu.Lock()
			s.down = true
			s.failures++
			// First failure: fail over immediately (§2.6 restart).
			// Repeats: blacklist the segment on the reprobe backoff
			// curve so a flapping host stops absorbing restarts.
			s.retryAt = c.clk.Now()
			if s.failures > 1 {
				s.retryAt = s.retryAt.Add(c.cfg.Reprobe.Backoff(s.failures - 1))
			}
			s.mu.Unlock()
			t := c.TxMgr.Begin(tx.ReadCommitted)
			if err := c.Cat().SetSegmentStatus(t, s.ID, "down"); err == nil {
				// The catalog row only records what the in-memory down
				// flag already enforces, so a commit the WAL refuses
				// loses nothing a dispatch reads.
				//hawqcheck:ignore errdrop
				t.Commit()
			} else {
				// ErrConcurrentUpdate: another pass or Recover is writing
				// the row first, and its word stands.
				t.Abort()
			}
			marked = append(marked, s.ID)
		}
	}
	return marked
}

// Recover restores a failed segment (the recovery utility of §2.6):
// a fresh endpoint is created — on the original host — and the segment
// is marked "up" again.
func (c *Cluster) Recover(segID int) error {
	s := c.segments[segID]
	s.mu.Lock()
	if s.node == nil {
		//hawqcheck:ignore lockorder — recovery-path listen; s.mu serializes segment state transitions and Listen on a free port does not wait on peers
		node, err := c.newNode(interconnect.SegID(segID))
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.node = node
	}
	s.down = false
	s.failures = 0
	s.retryAt = time.Time{}
	s.mu.Unlock()
	t := c.TxMgr.Begin(tx.ReadCommitted)
	if err := c.Cat().SetSegmentStatus(t, segID, "up"); err != nil {
		t.Abort()
		return err
	}
	return t.Commit()
}

// Reprobe is the fault detector's blacklist re-probe pass: down
// segments whose backoff window has expired get a fresh replacement
// endpoint (so the next restart can use them), while still-blacklisted
// segments are left alone. It returns the segments re-probed. Catalog
// status stays "down" until an explicit Recover.
func (c *Cluster) Reprobe() []int {
	var probed []int
	for _, s := range c.segments {
		s.mu.Lock()
		eligible := s.down && s.node == nil && !c.clk.Now().Before(s.retryAt)
		s.mu.Unlock()
		if !eligible {
			continue
		}
		if err := c.failover(s); err == nil {
			probed = append(probed, s.ID)
		}
	}
	return probed
}

// failover replaces a dead segment's endpoint with a fresh one so this
// session's queries can proceed on a surviving host. Stateless segments
// make this legal: all table data lives on HDFS (§2.6).
func (c *Cluster) failover(s *Segment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.node != nil {
		return nil
	}
	if wait := s.retryAt.Sub(c.clk.Now()); wait > 0 {
		return fmt.Errorf("cluster: segment %d %w for %v after %d failures",
			s.ID, ErrSegmentBlacklisted, wait, s.failures)
	}
	//hawqcheck:ignore lockorder — failover-path listen; s.mu serializes segment state transitions and Listen on a free port does not wait on peers
	node, err := c.newNode(interconnect.SegID(s.ID))
	if err != nil {
		return err
	}
	s.node = node
	// The replacement QE runs on some other host; data locality is lost
	// but HDFS replication keeps the data readable.
	alive := 0
	for _, other := range c.segments {
		if other != s && other.Alive() {
			alive++
		}
	}
	if alive == 0 {
		return fmt.Errorf("cluster: no surviving segments for failover")
	}
	return nil
}

// queryNodeRes is one node's share of a query's workload-manager
// resources: the workfile store its operators' spills land in and, when
// the query has a memory grant, the account they reserve against (nil
// otherwise: an unlimited account would cost an atomic add per retained
// row and limit nothing).
type queryNodeRes struct {
	mem  *resource.Account
	work *resource.Store
}

// QueryResult is what a dispatched statement returns to the session.
type QueryResult struct {
	Schema *types.Schema
	Rows   []types.Row
	// Updates are the piggybacked segment-file changes from DML (§3.1).
	Updates []executor.SegFileUpdate
	// Stats are the per-(slice, segment) operator statistics piggybacked
	// back by the gang when the plan asked for them (EXPLAIN ANALYZE,
	// slow-query log). Arrival order follows gang completion and is not
	// deterministic; plan.MergeStats folds them order-independently.
	Stats []obs.SliceStats
}

// dispatch is one statement's QD-side state: the plan every gang member
// executes, what the gang piggybacks back (segfile updates, stats, the
// first QE error) and the per-node workload-manager resources. One
// allocation and one mutex per statement.
type dispatch struct {
	c     *Cluster
	ctx   context.Context
	query uint64
	p     *plan.Plan
	// onUpdate is addUpdate as a func value, made once per dispatch:
	// every slice execution's context shares it.
	onUpdate func(executor.SegFileUpdate)

	cancelOnce sync.Once

	mu    sync.Mutex
	res   QueryResult
	qeErr error
	// nodeRes is indexed by segment ID + 1 (the QD first); an entry is
	// filled when a slice first runs on its node.
	nodeRes []queryNodeRes
}

func (d *dispatch) addUpdate(u executor.SegFileUpdate) {
	d.mu.Lock()
	d.res.Updates = append(d.res.Updates, u)
	d.mu.Unlock()
}

func (d *dispatch) addStats(ss obs.SliceStats) {
	d.mu.Lock()
	d.res.Stats = append(d.res.Stats, ss)
	d.mu.Unlock()
}

// resFor returns segID's share of the query's workload-manager resources
// (§2.1's resource manager): one workfile store per node, shared by all
// the query's slices on that node, and one memory account when the query
// has a grant. A store creates nothing on disk until its first file.
func (d *dispatch) resFor(segID int) queryNodeRes {
	d.mu.Lock()
	defer d.mu.Unlock()
	nr := &d.nodeRes[segID+1]
	if nr.work == nil {
		// "q<query>-seg<segment>", without fmt's two boxed arguments.
		var b [40]byte
		tag := strconv.AppendInt(append(strconv.AppendUint(append(b[:0], 'q'), d.query, 10), "-seg"...), int64(segID), 10)
		nr.work = resource.NewStore(d.c.cfg.SpillDir, string(tag))
		if d.p.MemGrant > 0 {
			nr.mem = resource.NewAccount(d.p.MemGrant)
		}
	}
	return *nr
}

// cancel tears the whole query down: it unblocks every receiver so no
// QE (or the QD) waits on a gang member that died (§2.6: in-flight
// queries fail and restart).
func (d *dispatch) cancel() {
	d.cancelOnce.Do(func() {
		d.c.qdNode.CancelQuery(d.query)
		for _, seg := range d.c.segments {
			seg.mu.Lock()
			node := seg.node
			seg.mu.Unlock()
			if node != nil {
				node.CancelQuery(d.query)
			}
		}
	})
}

// execContext builds the executor context of one slice execution on one
// node.
func (d *dispatch) execContext(sliceID, segID int, net interconnect.Node, localHost string) *executor.Context {
	c, nr := d.c, d.resFor(segID)
	ectx := &executor.Context{
		Ctx:             d.ctx,
		Query:           d.query,
		Segment:         segID,
		FS:              c.FS,
		Net:             net,
		External:        c.External,
		Plan:            d.p,
		Mem:             nr.mem,
		Work:            nr.work,
		OnSegFileUpdate: d.onUpdate,
		LocalHost:       localHost,
		Clock:           c.clk,
	}
	if segID != plan.QDSegment {
		// Scans read through the executing segment's block cache; the QD
		// scans no table.
		ectx.Cache = c.segments[segID].cache
	}
	if d.p.CollectStats {
		// Per-query instrumentation: every slice execution gets a
		// StatsRecorder and ships its bundle back on completion.
		ectx.Stats = executor.NewStatsRecorder(c.clk, d.p.Slices[sliceID].Root, sliceID, segID)
	}
	return ectx
}

// Dispatch runs a sliced plan: gangs of QEs execute the non-top slices
// on their segments while the QD consumes the top slice, gathering the
// final result (§2.4). ctx is the per-query cancellation context
// (statement timeout or client cancel); when it fires, every
// interconnect stream of the query is canceled so all slices — QD and
// QEs alike — tear down within bounded time, and the returned error is
// the cancellation cause. A nil ctx runs uncancellable.
//
// Metadata dispatch (§3.1): the plan is self-described — a QE needs
// nothing beyond it — and in this one-process cluster the gang executes
// the QD's *plan.Plan itself rather than each member decoding a
// serialized copy. That is sound because execution only reads a plan:
// an operator binds the arguments in p's header and its node's clock
// into copies of its own as it is built (executor.Build), so one p may
// be dispatched any number of times, concurrently too. plan.Encode/Decode
// remain the wire form, proven equivalent by
// TestSelfDescribedPlanExecutes.
func (c *Cluster) Dispatch(ctx context.Context, p *plan.Plan, onRow func(types.Row) error) (*QueryResult, error) {
	d := &dispatch{c: c, ctx: ctx, query: c.nextQuery.Add(1), p: p}
	d.onUpdate = d.addUpdate
	d.res.Schema = p.Schema
	// Stores are torn down when the dispatch returns — normal
	// completion, error, or cancel — so no spill files outlive the query.
	d.nodeRes = make([]queryNodeRes, len(c.segments)+1)
	defer func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, nr := range d.nodeRes {
			if nr.work != nil {
				nr.work.Cleanup()
			}
		}
	}()
	// The instant the query context fires, cancel every interconnect
	// stream so no slice stays blocked in a motion wait.
	if ctx != nil {
		stop := context.AfterFunc(ctx, d.cancel)
		defer stop()
	}

	var wg sync.WaitGroup
	for si := 1; si < len(p.Slices); si++ {
		for _, segID := range p.Slices[si].Segments {
			wg.Add(1)
			go func(si, segID int) {
				defer wg.Done()
				if err := d.runQE(si, segID); err != nil {
					d.mu.Lock()
					if d.qeErr == nil {
						d.qeErr = fmt.Errorf("segment %d slice %d: %w", segID, si, err)
					}
					d.mu.Unlock()
					d.cancel()
				}
			}(si, segID)
		}
	}

	// Top slice on the QD.
	qdCtx := d.execContext(0, plan.QDSegment, c.qdNode, "")
	op, topErr := executor.Build(qdCtx, p.Slices[0].Root)
	if topErr == nil {
		topErr = executor.Drain(qdCtx, op, func(row types.Row) error {
			if onRow != nil {
				return onRow(row)
			}
			d.res.Rows = append(d.res.Rows, row.Clone())
			return nil
		})
	}
	if topErr != nil {
		d.cancel()
	} else if qdCtx.Stats != nil {
		d.addStats(qdCtx.Stats.Stats())
	}
	wg.Wait()
	// A canceled query reports its cancellation cause (statement
	// timeout, client cancel): the individual slice errors are just the
	// teardown it triggered.
	if ctx != nil && ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	// A QE failure is the root cause; the QD error is usually just the
	// cancellation it triggered.
	if d.qeErr != nil {
		return nil, d.qeErr
	}
	if topErr != nil {
		return nil, topErr
	}
	res := d.res // a copy: the result must not pin the dispatch state
	return &res, nil
}

// runQE executes one slice of the dispatched plan as a QE on one
// segment — a stateless segment: no catalog round trip, everything it
// reads is in the plan.
func (d *dispatch) runQE(sliceID, segID int) error {
	c := d.c
	net, localHost := c.qdNode, ""
	if segID != plan.QDSegment {
		seg := c.segments[segID]
		seg.mu.Lock()
		if seg.node == nil {
			if !seg.down {
				// The process died but the fault detector has not seen
				// it yet: this in-flight query fails; the session will
				// run the detector and restart (§2.6).
				seg.mu.Unlock()
				return fmt.Errorf("segment %d is not responding", segID)
			}
			seg.mu.Unlock()
			if err := c.failover(seg); err != nil {
				return err
			}
			seg.mu.Lock()
		}
		net, localHost = seg.node, seg.LocalHost
		seg.mu.Unlock()
	}
	ectx := d.execContext(sliceID, segID, net, localHost)
	if err := executor.RunSlice(ectx, sliceID); err != nil {
		return err
	}
	// Ship this slice's stats back to the QD, piggybacked on completion.
	if ectx.Stats != nil {
		d.addStats(ectx.Stats.Stats())
	}
	return nil
}
