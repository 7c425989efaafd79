package taskgen

import "catpa/internal/mc"

// TaskSource produces the task universes a scenario evaluates: the
// idx-th call of a replicated experiment rooted at baseSeed must return
// the same set bit for bit, across serial, parallel and resumed runs.
// The returned set and every task's WCET vector may alias the source's
// internal storage — valid only until the next Generate call — and a
// TaskSource must not be shared between goroutines. *Generator (the
// Table-IV protocol of the paper) is the one production
// implementation; tests substitute sources that fail on purpose.
type TaskSource interface {
	// Generate produces the idx-th task universe of the replicated
	// experiment rooted at baseSeed under the family parameters cfg.
	Generate(cfg *Config, baseSeed int64, idx int) *mc.TaskSet
}

// Compile-time proof that the Table-IV generator is a TaskSource.
var _ TaskSource = (*Generator)(nil)
