// Command drtmr-vet bundles drtmr's eight invariant analyzers (internal/lint):
// htmregion, virtualtime, abortattr, lockpair, doorbell, lockorder, hotalloc,
// enumswitch. It speaks cmd/go's vet tool protocol and nothing else:
//
//	go vet -vettool=$PWD/bin/drtmr-vet ./...
//	go vet -vettool=$PWD/bin/drtmr-vet -tags race ./...
//
// (`make lint` runs both lines: the second covers the race half of the
// repo's race/!race build-tag pairs.) A finding prints as
// file:line:col: analyzer: message and go vet exits 1.
//
// Suppress a finding with `//drtmr:allow <analyzer> <reason>` on the
// offending line or the line above (the reason is required).
package main

import (
	"drtmr/internal/lint"
	"drtmr/internal/lint/unitchecker"
)

func main() { unitchecker.Main(lint.Analyzers...) }
