package analytic

// SaturationSearch exposes the saturation search shared by Model, Grid and
// Baseline, so that tests can drive it with any probe predicate.
var SaturationSearch = saturationPoint
