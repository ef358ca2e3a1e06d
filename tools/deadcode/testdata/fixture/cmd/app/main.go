package main

import "fixture/internal/lib"

type namer interface{ Name() string }

func main() {
	var n namer = lib.Widget{}
	_ = n
	m := lib.ModeOn
	switch m {
	case lib.ModeCompared, lib.ModeOwnTest:
	}
	_ = m == lib.ModeOtherTest || m != (lib.ModeOn)
	_ = lib.NewRecord()
}
