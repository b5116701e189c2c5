//go:build !race

package memstore

const raceEnabled = false
