package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"hawq/internal/client"
	"hawq/internal/engine"
	"hawq/internal/tpch"
	"hawq/internal/types"
)

const (
	serveSF = 0.01
	// serveClients is the number of closed-loop wire clients: one per
	// core, so the loop measures the engine and not the Go scheduler.
	serveClients = 2
	// servePass is how many consecutive statements of one client make a
	// pass.
	servePass = 200
	// serveQueueActive keeps admission exercised but never waiting.
	serveQueueActive = 64

	pointSQL  = "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = $1"
	fanoutSQL = "SELECT count(*) FROM orders WHERE o_custkey = $1"
)

// serveOp is one statement of the serving mix.
type serveOp struct {
	class string // "point", "text" or "fanout"
	key   int64
}

// String renders the statement as the client sends it.
func (o serveOp) String() string {
	switch o.class {
	case "text":
		return fmt.Sprintf("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = %d", o.key)
	case "fanout":
		return fmt.Sprintf("EXECUTE fanout(%d)", o.key)
	default:
		return fmt.Sprintf("EXECUTE point(%d)", o.key)
	}
}

// serveGen is one client's seeded statement stream: uniform keys, 60 %
// prepared point lookups, 20 % the same lookup as simple-query text with
// the literal inlined, 20 % prepared 4-segment fanout.
type serveGen struct {
	rng       *rand.Rand
	customers int
}

func newServeGen(seed int64, clientNo, customers int) *serveGen {
	return &serveGen{rng: rand.New(rand.NewSource(seed*1000003 + int64(clientNo))), customers: customers}
}

func (g *serveGen) next() serveOp {
	op := serveOp{class: "point"}
	switch r := g.rng.Intn(10); {
	case r >= 8:
		op.class = "fanout"
	case r >= 6:
		op.class = "text"
	}
	op.key = int64(g.rng.Intn(g.customers)) + 1
	return op
}

// serveState is the serving workload: a wire server on loopback and two
// closed-loop connections.
type serveState struct {
	e     *engine.Engine
	srv   *client.Server
	conns []*client.Conn
	gens  []*serveGen
	seed  int64
	scale tpch.Scale
	// customers[k] is the generator's (c_name, c_acctbal) for key k+1;
	// orders[k] its order count.
	customers []types.Row
	orders    map[int64]int64
	stored    float64
	dir       string
	// traceGen is a third statement stream, distinct from the two
	// clients', that traceStmts continues from call to call.
	traceGen *serveGen
}

func setupServe(cfg config) (state, error) {
	dir, err := scratchDir(cfg, "spill-")
	if err != nil {
		return nil, err
	}
	e, err := bootEngine(engine.Config{Segments: segments, SpillDir: dir})
	if err != nil {
		return nil, err
	}
	st := &serveState{e: e, dir: dir, seed: cfg.seed, scale: tpch.Scale{SF: serveSF * cfg.scale, Seed: cfg.seed}}
	if err := st.start(cfg); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return st, nil
}

func (st *serveState) start(cfg config) error {
	if _, err := tpch.Load(st.e, tpch.LoadOptions{Scale: st.scale, Orientation: "row", Distribution: tpch.DistHash}); err != nil {
		return err
	}
	ddl := fmt.Sprintf("CREATE RESOURCE QUEUE serving WITH (active_statements = %d)", serveQueueActive)
	if _, err := st.e.NewSession().Query(ddl); err != nil {
		return err
	}
	var err error
	if st.srv, err = client.NewServer(st.e, "127.0.0.1:0"); err != nil {
		return err
	}
	for i := 0; i < serveClients; i++ {
		c, err := client.Connect(st.srv.Addr())
		if err != nil {
			return err
		}
		st.conns = append(st.conns, c)
		st.gens = append(st.gens, newServeGen(cfg.seed, i, st.scale.Customers()))
		if err := c.Set("resource_queue", "serving"); err != nil {
			return err
		}
		if err := c.Prepare("point", pointSQL); err != nil {
			return err
		}
		if err := c.Prepare("fanout", fanoutSQL); err != nil {
			return err
		}
	}
	return nil
}

func (st *serveState) eng() *engine.Engine { return st.e }

func (st *serveState) storedBytesPerRow() float64 { return st.stored }

// oracle replays the generator tpch.Load used (same scale, same seed,
// same table order) and keeps every customer row and order count.
func (st *serveState) oracle() error {
	var err error
	if st.stored, err = storedBytesPerRow(st.e, tpch.TableNames); err != nil {
		return err
	}
	g := tpch.NewGen(st.scale)
	g.Region()
	g.Nation()
	g.Supplier()
	g.Part()
	g.PartSupp()
	for _, row := range g.Customer() {
		st.customers = append(st.customers, types.Row{row[1], row[5]})
	}
	st.orders = map[int64]int64{}
	g.OrderAndLines(func(order types.Row, _ []types.Row) { st.orders[order[1].Int()]++ })
	return nil
}

// run executes one statement on a connection and checks its answer
// against the generator.
func (st *serveState) run(c *client.Conn, op serveOp) error {
	var res *client.Result
	var err error
	switch op.class {
	case "text":
		res, err = c.QueryOne(op.String())
	default:
		res, err = c.ExecPrepared(op.class, types.NewInt64(op.key))
	}
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		return errWrongAnswer(op.String(), fmt.Sprintf("%d rows", len(res.Rows)), "1 row")
	}
	got := res.Rows[0]
	if op.class == "fanout" {
		if want := st.orders[op.key]; len(got) != 1 || got[0].Int() != want {
			return errWrongAnswer(op.String(), got.String(), fmt.Sprint(want))
		}
		return nil
	}
	want := st.customers[op.key-1]
	if len(got) != 2 || !types.Equal(got[0], want[0]) || !types.Equal(got[1], want[1]) {
		return errWrongAnswer(op.String(), got.String(), want.String())
	}
	return nil
}

// loop runs passes of servePass statements per client. The clients run
// concurrently inside a pass and meet at its end, so the reference
// kernel runs between passes with the server idle; a client that
// finishes early waits a few statements' time for the other.
func (st *serveState) loop(d time.Duration, minPasses int, rec *recorder) {
	start := wall.Now()
	recs := make([]*recorder, len(st.conns))
	for i := range recs {
		recs[i] = newRecorder(nil)
	}
	for pass := 0; pass < minPasses || wall.Since(start) < d; pass++ {
		passStart := rec.beginPass()
		var wg sync.WaitGroup
		for i := range st.conns {
			wg.Add(1)
			go func(c *client.Conn, g *serveGen, r *recorder) {
				defer wg.Done()
				for i := 0; i < servePass; i++ {
					op := g.next()
					opStart := wall.Now()
					err := st.run(c, op)
					r.observe(op.class, wall.Since(opStart), err)
				}
			}(st.conns[i], st.gens[i], recs[i])
		}
		wg.Wait()
		rec.endPass(passStart)
	}
	for _, r := range recs {
		rec.merge(r)
	}
}

func (st *serveState) traceStmts() []traceStmt {
	if st.traceGen == nil {
		st.traceGen = newServeGen(st.seed, serveClients, st.scale.Customers())
	}
	var out []traceStmt
	for i := 0; i < servePass; i++ {
		op := st.traceGen.next()
		ts := traceStmt{class: op.class, cached: op.class != "text"}
		want := st.customers[op.key-1]
		switch op.class {
		case "text":
			ts.sql = op.String()
		case "fanout":
			ts.sql, ts.args = fanoutSQL, []types.Datum{types.NewInt64(op.key)}
			want = types.Row{types.NewInt64(st.orders[op.key])}
		default:
			ts.sql, ts.args = pointSQL, []types.Datum{types.NewInt64(op.key)}
		}
		ts.want = fingerprint([]types.Row{want})
		out = append(out, ts)
	}
	return out
}

func (st *serveState) close() error {
	var errs []error
	for _, c := range st.conns {
		errs = append(errs, c.Close())
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Close())
	}
	return errors.Join(append(errs, st.e.Close(), os.RemoveAll(st.dir))...)
}
