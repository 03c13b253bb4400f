package sim

// Test-only exports for the external differential tests in
// policy_engine_test.go, which drive the engines through internal/policy
// and so cannot live in package sim.
var (
	RefRunPolicy   = refRunPolicy
	RefRunPolicyMT = refRunPolicyMT
	CorpusTraces   = corpusTraces
	CorpusSchedule = corpusSchedule
	DiffResults    = diffResults
)
