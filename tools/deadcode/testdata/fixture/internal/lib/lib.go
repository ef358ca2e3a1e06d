// Package lib declares one exported name per case deadcode's test pins.
package lib

// OwnTestOnly is used only by this package's own test: reported.
func OwnTestOnly() {}

// OtherTestOnly is used by another package's test: kept.
func OtherTestOnly() {}

// Widget is used by cmd/app, which reaches Name only through an
// interface: both kept.
type Widget struct{}

// Name is never called by name.
func (Widget) Name() string { return "widget" }

// NestedOnly is used by the nested module: kept.
func NestedOnly() {}

// SelfKept is named only by its method's receiver and its package's
// own test: both reported.
type SelfKept struct{}

// Run is called only by this package's own test.
func (SelfKept) Run() {}
