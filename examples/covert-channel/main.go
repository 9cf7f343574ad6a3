// covert-channel measures the Section 6.4 user-to-kernel covert channels
// of Table 2: the fetch channel (P1: does a kernel instruction fetch of
// the injected target happen?) on all AMD parts, and the execute channel
// (P2: does a transient kernel load happen?) which only carries a signal
// on Zen 1/2.
package main

import (
	"fmt"
	"log"

	"phantom"
)

func main() {
	opts := phantom.Options{Seed: 42, Bits: 1024, Runs: 3}

	fetch, err := phantom.RunTable2Fetch(phantom.AMDMicroarchs(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(phantom.FormatTable2("Fetch covert channel (P1) — works on every Zen, AutoIBRS included", fetch))
	fmt.Println()

	exec, err := phantom.RunTable2Execute(phantom.AMDMicroarchs(), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(phantom.FormatTable2("Execute covert channel (P2) — signal only on Zen 1/2", exec))
	fmt.Println("\n(~50% on Zen 3/4 is chance level: no Phantom execute window.)")
}
