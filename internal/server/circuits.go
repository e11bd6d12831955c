package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"

	"fpgapart/internal/hypergraph"
)

// circuitCacheSize bounds the parsed-circuit cache in entries. A
// coordinator fan-out sends each of one job's attempts to a worker by
// digest, and a worker resolves the digest only from this cache, so a
// few entries cover the jobs in flight; a circuit evicted mid-job costs
// the coordinator one re-send with the text.
const circuitCacheSize = 8

// errCircuitUnknown answers a digest-only request whose circuit is not
// in the cache: the client must send the text (409 circuit_unknown).
var errCircuitUnknown = errors.New("circuit digest not in this server's circuit cache; send the circuit text")

// CircuitDigest is the lowercase hex SHA-256 of a circuit's exact
// text, the value JobRequest.CircuitDigest carries.
func CircuitDigest(circuit string) string {
	sum := sha256.Sum256([]byte(circuit))
	return hex.EncodeToString(sum[:])
}

// circuitKey identifies one parse: the dialect ("clb" or "gnl"), the
// SHA-256 of the source text and, for gnl only, the seed technology
// mapping packs with.
type circuitKey struct {
	format string
	digest [sha256.Size]byte
	seed   int64
}

// circuitEntry is one parse, cached or in progress. text is the source
// the parse reads; g is set before done closes, and stays nil when the
// parse failed.
type circuitEntry struct {
	key  circuitKey
	text string
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

// graph returns the graph for key and the text it was parsed from,
// calling parse on text only when no request has parsed it already;
// hit reports that parse was not called. A nil parse marks a
// digest-only request, which fails with errCircuitUnknown on a miss.
// Concurrent requests for a circuit being parsed wait for that parse
// instead of repeating it.
func (c *circuitCache) graph(key circuitKey, text string, parse func(string) (*hypergraph.Graph, error)) (g *hypergraph.Graph, src string, hit bool, err error) {
	c.mu.Lock()
	for {
		e, ok := c.byKey[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-e.done
		if e.g != nil {
			return e.g, e.text, true, nil
		}
		// That parse failed and left the cache: parse it here.
		c.mu.Lock()
	}
	if parse == nil {
		c.mu.Unlock()
		return nil, "", false, errCircuitUnknown
	}
	e := &circuitEntry{key: key, text: text, done: make(chan struct{})}
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
	e.g, err = parse(text)
	return e.g, text, false, err
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
