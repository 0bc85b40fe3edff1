package core

// RunReference exposes the reference engine (refengine_test.go) to the
// external core_test package: Run through the unbounded worst-attribute
// scan, on an evaluator with the quantization hook cleared so no bound
// ever fires.
var RunReference = runReference
