package axml

// callScansDuring returns how many document walks TopLevelServiceCalls
// made while f ran.
func callScansDuring(f func()) uint64 {
	before := callScans.Load()
	f()
	return callScans.Load() - before
}
