package other

import "fixture/internal/lib"

func useOther() { lib.OtherTestOnly() }
