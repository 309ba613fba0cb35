// Command verdictlint is verdictdb's static-analysis suite: repo-contract
// analyzers (determinism, query lifecycle and cancellation, memory-budget
// charging, error taxonomy, kernel purity, hot-loop allocation) behind the
// `go vet -vettool` protocol.
//
// Usage:
//
//	verdictlint ./...                         # standalone (re-execs go vet)
//	go vet -vettool=$(which verdictlint) ./...
//
// Each analyzer can be disabled with -<name>=false. See internal/lint for
// the rules and their //verdict:* suppression tokens.
package main

import "verdictdb/internal/lint"

func main() {
	lint.Main(lint.All())
}
