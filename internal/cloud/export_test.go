package cloud

// NewTestFDS exposes the package tests' two-region, eight-decision
// controller to the external admission test.
var NewTestFDS = testFDS
