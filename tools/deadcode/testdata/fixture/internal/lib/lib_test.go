package lib

func useOwn() { OwnTestOnly(); SelfKept{}.Run() }
