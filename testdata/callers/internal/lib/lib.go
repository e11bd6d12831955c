// Package lib holds functions the production-caller scan must flag and
// functions it must not.
package lib

import "errors"

// Used is called by the command.
func Used() int { return helper() }

// helper is called by Used.
func helper() int { return 1 }

// TestOnly is called only by a test.
func TestOnly() int { return 2 }

// Reference is called only by a test and exempt.
func Reference() int { return 3 }

// Point is printed by the command, through fmt.Stringer.
type Point struct{ X, Y int }

func (p Point) String() string { return "point" }

// Scale is called only by a test.
func (p Point) Scale(k int) Point { return Point{p.X * k, p.Y * k} }

type box struct{ v int }

// peek is called only by a test.
func (b box) peek() int { return b.v }

// Shape is the module interface the command calls Area through.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Failure reaches its callers only as an error: fmt calls Error, and
// errors.Is and errors.As call Unwrap.
type Failure struct{ Err error }

func (f *Failure) Error() string { return "failure: " + f.Err.Error() }

func (f *Failure) Unwrap() error { return f.Err }

// Check fails on a negative area.
func Check(area int) error {
	if area < 0 {
		return &Failure{Err: errors.New("negative area")}
	}
	return nil
}
