package hypergraph

// Limits bounds the .clb parser's resource consumption against
// hostile or corrupt input: each quantity is capped and the parser
// fails fast with a typed *textparse.LimitError (wrapped in a
// *textparse.ParseError with the offending line) instead of letting a malformed file drive
// unbounded allocation. The zero value selects generous defaults that
// admit every legitimate mapped circuit.
type Limits struct {
	// MaxLineBytes caps one physical input line (default 16 MiB — dep
	// matrices of wide cells make .clb lines long).
	MaxLineBytes int
	// MaxCells caps the cell count (default 1<<20).
	MaxCells int
	// MaxPins caps one cell's pin count, inputs plus outputs
	// (default 1<<16).
	MaxPins int
	// MaxFanout caps how many cell pins one net may touch
	// (default 1<<20).
	MaxFanout int
	// MaxNets caps the distinct net count (default 1<<21).
	MaxNets int
}

func (l Limits) withDefaults() Limits {
	if l.MaxLineBytes == 0 {
		l.MaxLineBytes = 1 << 24
	}
	if l.MaxCells == 0 {
		l.MaxCells = 1 << 20
	}
	if l.MaxPins == 0 {
		l.MaxPins = 1 << 16
	}
	if l.MaxFanout == 0 {
		l.MaxFanout = 1 << 20
	}
	if l.MaxNets == 0 {
		l.MaxNets = 1 << 21
	}
	return l
}
