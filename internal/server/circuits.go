package server

import (
	"sync"

	"fpgapart/internal/hypergraph"
)

// circuitCacheSize bounds the parsed-circuit cache in entries. A
// coordinator fan-out sends one job's circuit to the same worker
// ⌈solutions/workers⌉ times, so a few entries cover the jobs in flight.
const circuitCacheSize = 8

// circuitKey identifies one parse: the dialect ("clb" or "gnl"), the
// source text and, for gnl only, the seed technology mapping packs with.
type circuitKey struct {
	format  string
	circuit string
	seed    int64
}

// circuitEntry is one parse, cached or in progress. g is set before
// done closes, and stays nil when the parse failed.
type circuitEntry struct {
	key  circuitKey
	done chan struct{}
	g    *hypergraph.Graph
}

// circuitCache shares parsed circuits across requests, so a repeated
// circuit is parsed once per process. Sharing is safe because a search
// only reads its input graph. Failed parses are never kept: a malformed
// body is parsed, and rejected, on every request.
type circuitCache struct {
	mu    sync.Mutex
	byKey map[circuitKey]*circuitEntry
	fifo  []*circuitEntry // oldest first; evicted past circuitCacheSize
}

// graph returns the graph for key, calling parse only when no request
// has parsed it already; hit reports that parse was not called.
// Concurrent requests for a circuit being parsed wait for that parse
// instead of repeating it.
func (c *circuitCache) graph(key circuitKey, parse func() (*hypergraph.Graph, error)) (g *hypergraph.Graph, hit bool, err error) {
	c.mu.Lock()
	for {
		e, ok := c.byKey[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-e.done
		if e.g != nil {
			return e.g, true, nil
		}
		// That parse failed and left the cache: parse it here.
		c.mu.Lock()
	}
	e := &circuitEntry{key: key, done: make(chan struct{})}
	if len(c.fifo) == circuitCacheSize {
		c.drop(c.fifo[0])
	}
	c.byKey[key] = e
	c.fifo = append(c.fifo, e)
	c.mu.Unlock()

	// Deferred so that a panicking parse still releases its waiters.
	defer func() {
		if e.g == nil {
			c.mu.Lock()
			c.drop(e)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.g, err = parse()
	return e.g, false, err
}

// drop forgets e if it is still cached. The caller holds c.mu.
func (c *circuitCache) drop(e *circuitEntry) {
	if c.byKey[e.key] == e {
		delete(c.byKey, e.key)
	}
	for i, f := range c.fifo {
		if f == e {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
			return
		}
	}
}
