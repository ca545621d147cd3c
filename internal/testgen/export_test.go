package testgen

import (
	"wcet/internal/c2m"
	"wcet/internal/interp"
	"wcet/internal/paths"
	"wcet/internal/tsys"
)

// LowerPath and WitnessEnv expose the checked-model builder and the
// witness replay to the external tests.
func (gen *Generator) LowerPath(p paths.Path, conf Config) (*c2m.Result, error) {
	return gen.lowerPath(p, conf)
}

func (gen *Generator) WitnessEnv(low *c2m.Result, p paths.Path, witness map[tsys.VarID]int64,
	conf Config) (interp.Env, error) {
	return gen.witnessEnv(gen.M, low, p, witness, conf)
}
