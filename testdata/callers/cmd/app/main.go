// Command app is the fixture module's production caller.
package main

import (
	"fmt"

	"example.com/callers/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.Used(), lib.Point{X: 1}, lib.Check(s.Area()))
}
