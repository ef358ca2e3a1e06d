package other

import "fixture/internal/lib"

func useOther() { lib.OtherTestOnly() }

func produceOther() lib.Mode { return lib.ModeOtherTest }
