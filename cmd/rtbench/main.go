// Command rtbench runs the experiment suite (E1–E14 of DESIGN.md) and
// prints the tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	rtbench [-only E3] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"

	"rtm/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run only the experiment with this ID (e.g. E3)")
	workers := flag.Int("workers", 1, "exact-search workers for E2-E4; 1 reproduces the committed tables' node counts, -1 means all CPUs")
	flag.Parse()

	experiments.SetExactWorkers(*workers)

	ran := 0
	for _, t := range experiments.All() {
		if *only != "" && t.ID != *only {
			continue
		}
		fmt.Println(t)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rtbench: no experiment %q\n", *only)
		os.Exit(1)
	}
}
