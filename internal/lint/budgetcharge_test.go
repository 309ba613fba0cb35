package lint_test

import (
	"testing"

	"verdictdb/internal/lint"
	"verdictdb/internal/lint/linttest"
)

// TestBudgetCharge covers direct charges, the local fixpoint and the
// //verdict:nocharge suppression.
func TestBudgetCharge(t *testing.T) {
	linttest.Run(t, "internal/engine/bcharge", lint.BudgetCharge)
}
