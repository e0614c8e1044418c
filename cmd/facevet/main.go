// Facevet machine-checks the invariants this codebase's correctness
// arguments lean on: lock-free device I/O (nolockio), single-discipline
// atomics (atomicmix) and errors.Is for sentinel matching (sentinelerr).
//
// It speaks the go vet tool protocol and runs only under go vet:
//
//	go build -o /tmp/facevet ./cmd/facevet
//	go vet -vettool=/tmp/facevet ./...
//
// which analyzes test files too and caches per-package results.  Run on
// its own, facevet prints its usage and exits 2.
// Intentional violations are suppressed in place with a justified
// //lint:allow facevet/<analyzer> directive; see internal/analysis.
package main

import (
	"github.com/reprolab/face/internal/analysis"
	"github.com/reprolab/face/internal/analysis/atomicmix"
	"github.com/reprolab/face/internal/analysis/nolockio"
	"github.com/reprolab/face/internal/analysis/sentinelerr"
)

func main() {
	analysis.Main([]*analysis.Analyzer{
		atomicmix.Analyzer,
		nolockio.Analyzer,
		sentinelerr.Analyzer,
	})
}
