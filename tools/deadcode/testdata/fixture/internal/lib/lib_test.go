package lib

func useOwn() { OwnTestOnly(); SelfKept{}.Run() }

func produceOwn() (Mode, int) { return ModeOwnTest, NewRecord().TestRead }
