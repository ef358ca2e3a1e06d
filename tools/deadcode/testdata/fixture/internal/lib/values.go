package lib

// Mode's constants pin the compared-never-produced rule; cmd/app
// compares every one of them.
type Mode int

const (
	// ModeOn is also produced by cmd/app: kept.
	ModeOn Mode = iota
	// ModeCompared is only compared: reported.
	ModeCompared
	// ModeOwnTest is produced only by this package's own test: reported.
	ModeOwnTest
	// ModeOtherTest is produced by another package's test: kept.
	ModeOtherTest
)

// Record's fields pin the written-never-read rule.
type Record struct {
	// written is assigned, incremented and set in a literal: reported.
	written int
	// Tagged is read only through reflection: kept.
	Tagged int `json:"tagged"`
	// TestRead is read only by this package's own test: kept.
	TestRead int
}

// pair is a map key, and the map reads both fields: kept.
type pair struct{ a, b int }

var seen = map[pair]bool{}

// NewRecord writes every field of Record and of pair.
func NewRecord() Record {
	r := Record{written: 1, Tagged: 2}
	r.written++
	r.TestRead = 3
	seen[pair{a: 1, b: 2}] = true
	return r
}
