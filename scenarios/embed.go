// Package scenarios embeds the named scenario corpus: every *.json file in
// this directory is a declarative workload spec for internal/scenario. The
// corpus is loaded by the scenarios experiment, lfsim scenario, and the
// acceptance tests in internal/scenario, so a new file here is validated and
// envelope-checked in CI once `go test ./internal/scenario -update` has pinned it.
package scenarios

import "embed"

// FS holds the scenario corpus.
//
//go:embed *.json
var FS embed.FS
