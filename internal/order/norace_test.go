//go:build !race

package order

const raceEnabled = false
