package netlist

// Limits bounds the parsers' resource consumption against hostile or
// corrupt input: instead of letting a malformed file drive unbounded
// allocation (a .names block with 60 inputs expands to a 2^60-entry
// truth table; a single line can be gigabytes), each quantity is
// capped and the parser fails fast with a typed
// *textparse.LimitError carrying the offending line. The zero value
// selects generous defaults that admit every legitimate circuit in the
// benchmark suites.
type Limits struct {
	// MaxLineBytes caps one physical input line (default 4 MiB).
	MaxLineBytes int
	// MaxGates caps the gate count (default 1<<20).
	MaxGates int
	// MaxPins caps the pin count of one gate: inputs plus the output
	// (default 1<<12).
	MaxPins int
	// MaxFanout caps how many gate inputs one net may feed
	// (default 1<<20).
	MaxFanout int
	// MaxLutInputs caps the fan-in of a LUT/.names cover, whose truth
	// table costs 2^inputs to materialize (default 24).
	MaxLutInputs int
}

func (l Limits) withDefaults() Limits {
	if l.MaxLineBytes == 0 {
		l.MaxLineBytes = 1 << 22
	}
	if l.MaxGates == 0 {
		l.MaxGates = 1 << 20
	}
	if l.MaxPins == 0 {
		l.MaxPins = 1 << 12
	}
	if l.MaxFanout == 0 {
		l.MaxFanout = 1 << 20
	}
	if l.MaxLutInputs == 0 {
		l.MaxLutInputs = 24
	}
	return l
}
