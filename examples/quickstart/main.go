// Quickstart: run the complete hybrid WCET analysis on a small generated
// control function and print the resulting bound next to the exhaustive
// ground truth.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wcet"
)

const src = `
/*@ input */ /*@ range 0 3 */ int mode;
/*@ input */ /*@ range 0 50 */ char load;
int duty;

void governor(void) {
    duty = 0;
    switch (mode) {
    case 0:
        duty = 0;
        break;
    case 1:
        if (load > 30) { duty = 80; } else { duty = 40; }
        break;
    case 2:
        duty = 100;
        if (load > 45) { duty = 90; }
        break;
    default:
        duty = 10;
        break;
    }
    if (duty > 95) { duty = 95; }
}
`

func main() {
	report, err := wcet.Analyze(src, wcet.Options{
		FuncName:   "governor",
		Bound:      4, // program segments with at most 4 paths are measured whole
		Exhaustive: true,
		TestGen: wcet.TestGenConfig{
			GA: wcet.GAConfig{Seed: 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("hybrid measurement-based WCET analysis — quickstart")
	fmt.Printf("function              : %s\n", report.Fn.Name)
	fmt.Printf("basic blocks          : %d\n", report.G.NumNodes())
	fmt.Printf("instrumentation points: %d (fused: %d)\n", report.Plan.IP, report.Plan.IPFused())
	fmt.Printf("measurements needed   : %s\n", report.Plan.M)
	fmt.Printf("test data             : %s\n", report.TestGen.Summary())
	fmt.Printf("WCET bound            : %d cycles\n", report.WCET)
	fmt.Printf("exhaustive WCET       : %d cycles\n", report.ExhaustiveWCET)
	fmt.Printf("overestimation        : %.1f%%\n", report.Overestimate()*100)
}
