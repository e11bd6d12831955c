//go:build !race

package kway_test

const raceEnabled = false
