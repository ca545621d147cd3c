// Structural coverage as a by-product of the hybrid generator (the paper's
// Section 5 remark: "various structural code coverage criteria may be
// satisfied using this approach"): generate branch-coverage test data for a
// diagnostic routine with a dead branch, and watch the model checker prove
// the dead branch infeasible instead of wasting search budget on it.
//
//	go run ./examples/coverage
package main

import (
	"fmt"
	"log"

	"wcet/internal/cc/parser"
	"wcet/internal/cc/sem"
	"wcet/internal/cfg"
	"wcet/internal/ga"
	"wcet/internal/testgen"
)

const src = `
/*@ input */ /*@ range 0 100 */ char temp;
/*@ input */ /*@ range 0 1 */ int ignition;
int heater, alarm;

void climate(void) {
    heater = 0;
    alarm = 0;
    if (ignition == 1) {
        if (temp < 5) {
            heater = 2;
        } else if (temp < 18) {
            heater = 1;
        }
        if (temp > 90) {
            alarm = 1;
            if (temp > 120) { /* unreachable: temp <= 100 */
                alarm = 2;
            }
        }
    }
}
`

func main() {
	file, err := parser.ParseFile("climate.c", src)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sem.Check(file); err != nil {
		log.Fatal(err)
	}
	fn := file.Func("climate")
	g, err := cfg.Build(fn)
	if err != nil {
		log.Fatal(err)
	}
	gen := testgen.New(file, fn, g)

	for _, criterion := range []string{"branch", "statement"} {
		cov, err := gen.Cover(criterion, testgen.Config{
			GA: ga.Config{Seed: 99},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(cov)
	}

	fmt.Println("\nbranch-coverage test vectors:")
	cov, err := gen.Cover("branch", testgen.Config{
		GA: ga.Config{Seed: 99},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range cov.Report.Results {
		switch r.Verdict {
		case testgen.Infeasible:
			fmt.Printf("  %-28s → proven infeasible by the model checker\n", r.Path.Key())
		case testgen.FoundByHeuristic, testgen.FoundByModelChecker:
			fmt.Printf("  %-28s → temp=%-4d ignition=%d  (%s)\n",
				r.Path.Key(),
				r.Env[file.Globals[0]], r.Env[file.Globals[1]], r.Verdict)
		}
	}
}
