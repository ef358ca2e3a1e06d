package main

import "fixture/internal/lib"

type namer interface{ Name() string }

func main() {
	var n namer = lib.Widget{}
	_ = n
}
