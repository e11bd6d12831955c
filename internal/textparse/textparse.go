// Package textparse is the scaffolding every line-oriented text
// reader shares: the mapped-circuit (.clb) reader in hypergraph, the
// .gnl reader in netlist, and the board-file reader in topology. It
// owns the one error vocabulary for malformed input (*ParseError,
// optionally wrapping a *LimitError), so a consumer learns "this input
// is malformed" from one type, and a Reader that counts lines, caps
// their length and builds errors tagged with the format and line.
// Format rules (comments, directives) stay in the readers: a Reader
// hands out raw physical lines.
package textparse

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// LimitError reports input that exceeds a parser cap. It is always
// wrapped in a *ParseError carrying the line the cap tripped on.
type LimitError struct {
	// Quantity names the capped resource, e.g. "line-bytes", "cells",
	// "pins", "fanout".
	Quantity string
	// Value is the observed amount; Limit the configured cap.
	Value, Limit int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%s %d exceeds limit %d", e.Quantity, e.Value, e.Limit)
}

// ParseError is a syntax or limit violation with its source position,
// or an input that read cleanly but failed its structural check
// (Invalid). Format names the input dialect ("hypergraph" for .clb,
// "netlist" for .gnl, "topology"); Line is 1-based, 0 when the
// error concerns the whole input; Col is the 1-based byte column of
// the offending token, 0 when only the line is known.
type ParseError struct {
	Format string
	Line   int
	Col    int
	Msg    string
	Err    error
}

func (e *ParseError) Error() string {
	if e.Line == 0 && e.Msg == "" && e.Err != nil {
		// An Invalid error: the check's message already names the input.
		return e.Err.Error()
	}
	var sb strings.Builder
	sb.WriteString(e.Format)
	if e.Line > 0 {
		fmt.Fprintf(&sb, ": line %d", e.Line)
		if e.Col > 0 {
			fmt.Fprintf(&sb, ", col %d", e.Col)
		}
	}
	sb.WriteString(": ")
	if e.Msg != "" {
		sb.WriteString(e.Msg)
		if e.Err != nil {
			fmt.Fprintf(&sb, ": %v", e.Err)
		}
	} else if e.Err != nil {
		fmt.Fprintf(&sb, "%v", e.Err)
	}
	return sb.String()
}

func (e *ParseError) Unwrap() error { return e.Err }

// Invalid returns the *ParseError for an input of format that read
// cleanly but failed the structural check that returned err. It
// renders as err alone.
func Invalid(format string, err error) error {
	return &ParseError{Format: format, Err: err}
}

// FieldCol returns the 1-based byte column where the idx-th
// whitespace-separated field of line starts (0 when out of range), so
// parse errors can point at the offending token.
func FieldCol(line string, idx int) int {
	i, field := 0, 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		if field == idx {
			return i + 1
		}
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		field++
	}
	return 0
}

// Reader reads physical lines under a byte cap, numbering them from 1.
// Use it like a bufio.Scanner: Scan, then Text; after the last Scan,
// Err reports an over-long line as a line-bytes *LimitError.
type Reader struct {
	sc     *bufio.Scanner
	format string
	max    int
	line   int
}

// NewReader reads r as the named format, failing any line longer than
// maxLineBytes.
func NewReader(r io.Reader, format string, maxLineBytes int) *Reader {
	sc := bufio.NewScanner(r)
	// Scanner.Buffer takes max(cap(buf), max) as the token limit, so
	// the initial capacity must not exceed the cap for the cap to bind.
	sc.Buffer(make([]byte, 0, min(1<<16, maxLineBytes)), maxLineBytes)
	return &Reader{sc: sc, format: format, max: maxLineBytes}
}

// Scan advances to the next line, reporting false at end of input or
// on an error.
func (r *Reader) Scan() bool {
	if !r.sc.Scan() {
		return false
	}
	r.line++
	return true
}

// Text returns the current line, without its line terminator.
func (r *Reader) Text() string { return r.sc.Text() }

// Errorf returns a *ParseError at the current line and column col
// (0 when only the line is known).
func (r *Reader) Errorf(col int, format string, args ...any) error {
	return &ParseError{Format: r.format, Line: r.line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// Limit returns a *ParseError at the current line wrapping a
// *LimitError for quantity.
func (r *Reader) Limit(quantity string, value, limit int) error {
	return &ParseError{Format: r.format, Line: r.line, Err: &LimitError{Quantity: quantity, Value: value, Limit: limit}}
}

// Err returns the error that ended scanning, nil at a clean end of
// input. A line over the cap is reported on the line after the last
// one read, as a line-bytes *LimitError.
func (r *Reader) Err() error {
	err := r.sc.Err()
	if err == nil {
		return nil
	}
	if err == bufio.ErrTooLong {
		return &ParseError{Format: r.format, Line: r.line + 1, Err: &LimitError{Quantity: "line-bytes", Value: r.max + 1, Limit: r.max}}
	}
	return fmt.Errorf("%s: %w", r.format, err)
}
