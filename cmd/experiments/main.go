// Command experiments regenerates every figure/claim reproduction table
// of the E1–E12 experiment index (computed by internal/experiments) and
// prints them to stdout.
//
//	go run ./cmd/experiments
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	out, err := experiments.All()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}
