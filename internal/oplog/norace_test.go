//go:build !race

package oplog

const raceEnabled = false
