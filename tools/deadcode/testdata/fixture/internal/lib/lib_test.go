package lib

func useOwn() { OwnTestOnly() }
