// Package session implements the concurrent-serving layer's shared
// state: prepared-statement registries and the bounded,
// invalidation-correct plan cache that lets the master parse and plan a
// statement once and dispatch it many times (the compile-once /
// execute-many path that dominates interactive latency).
//
// Correctness of the cache rests on the catalog version captured inside
// MVCC snapshots: tx.Manager bumps its catalog version in the same
// critical section that flips a committing transaction's CLOG status,
// and tx.Snapshot carries the version read under that same mutex. Two
// snapshots with equal CatVer therefore see identical plan-relevant
// catalog contents, so a plan built under a version may be reused by any
// snapshot carrying the same version.
package session

import (
	"fmt"
	"strings"
	"sync"

	"hawq/internal/obs"
	"hawq/internal/sqlparser"
)

// Prepared is one prepared statement: the parsed syntax tree plus
// metadata the EXECUTE path needs. It is immutable after creation.
type Prepared struct {
	Name string
	// Stmt is the parsed inner statement (never re-parsed on EXECUTE).
	Stmt sqlparser.Statement
	// NumParams is the number of $n placeholders.
	NumParams int
}

// Registry holds a session's prepared statements. It is safe for
// concurrent use; the wire server may cancel a session from another
// goroutine while it executes.
type Registry struct {
	mu    sync.Mutex
	stmts map[string]*Prepared
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{stmts: map[string]*Prepared{}}
}

// Put registers a prepared statement; duplicate names are an error, as
// in PostgreSQL.
func (r *Registry) Put(p *Prepared) error {
	name := strings.ToLower(p.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.stmts[name]; ok {
		return fmt.Errorf("session: prepared statement %q already exists", p.Name)
	}
	r.stmts[name] = p
	return nil
}

// Get resolves a prepared statement by name.
func (r *Registry) Get(name string) (*Prepared, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.stmts[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("session: prepared statement %q does not exist", name)
	}
	return p, nil
}

// Remove deallocates one statement (error when absent).
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := r.stmts[key]; !ok {
		return fmt.Errorf("session: prepared statement %q does not exist", name)
	}
	delete(r.stmts, key)
	return nil
}

// Clear deallocates everything (DEALLOCATE ALL, session close).
func (r *Registry) Clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.stmts)
}

// Plan-cache counters in the process-wide obs registry, resolved once so
// the hot path pays a single atomic add.
var (
	cacheHits          = obs.GetCounter("plan_cache.hits")
	cacheMisses        = obs.GetCounter("plan_cache.misses")
	cacheInvalidations = obs.GetCounter("plan_cache.invalidations")
	cacheEvictions     = obs.GetCounter("plan_cache.evictions")
	cacheStores        = obs.GetCounter("plan_cache.stores")
)
