package plan

// Fixtures shared with the external tests (package plan_test), which
// exist because they import plantest, and plantest imports plan.
var (
	ChainWF            = chainWF
	ValidChainSchedule = validChainSchedule
	RandomPlanCase     = randomPlanCase
)
