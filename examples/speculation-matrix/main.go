// speculation-matrix regenerates Table 1 for every modeled
// microarchitecture: for each training/victim branch-type combination,
// how far does the mispredicted control flow advance — transient fetch
// (IF), transient decode (ID), transient execute (EX)? The derived
// observations O1-O3 of Section 6 follow directly from the matrix.
package main

import (
	"fmt"
	"log"

	"phantom"
)

func main() {
	for _, arch := range phantom.AllMicroarchs() {
		tb, err := phantom.RunTable1(arch, phantom.Options{Seed: 1, Trials: 4})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tb)
	}

	fmt.Println("Observations (cf. Section 6):")
	fmt.Println("  O1: speculative branch targets are fetched before the source decodes (IF everywhere)")
	fmt.Println("  O2: the fetched targets enter the pipeline (ID everywhere, jmp*-victim quirks aside)")
	fmt.Println("  O3: decoder-detectable speculation reaches execute only on AMD Zen 1/2")
}
