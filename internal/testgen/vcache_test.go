package testgen

// Integration tests for the persistent verdict cache: warm-equals-cold
// report identity, cross-edit reuse of sliced verdicts, journal-beats-
// cache precedence (and journal→cache population), budget-keyed reuse of
// degraded verdicts, and fail-closed recovery from a poisoned record.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wcet/internal/ga"
	"wcet/internal/journal"
	"wcet/internal/mc"
	"wcet/internal/vcache"
)

// renderResults flattens a report's deterministic fields — the same ones
// the journal replays — into a comparable string. Volatile fields
// (MCStats.Duration, Cached) are excluded on purpose.
func renderResults(rep *Report) string {
	var b strings.Builder
	for _, r := range rep.Results {
		fmt.Fprintf(&b, "%s %s ga=%d steps=%d nodes=%d bits=%d mem=%d states=%g",
			r.Path.Key(), r.Verdict, r.GAEvaluations, r.MCStats.Steps, r.MCStats.PeakNodes,
			r.MCStats.StateBits, r.MCStats.MemoryBytes, r.MCStats.States)
		names := make([]string, 0, len(r.Env))
		vals := map[string]int64{}
		for d, v := range r.Env {
			names = append(names, d.Name)
			vals[d.Name] = v
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, vals[n])
		}
		if r.Err != nil {
			fmt.Fprintf(&b, " err=%q", r.Err.Error())
		}
		for _, a := range r.Attempts {
			fmt.Fprintf(&b, " attempt=%q", a)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "share=%g ga=%d steps=%d peak=%d\n",
		rep.HeuristicShare, rep.TotalGAEvals, rep.TotalMCSteps, rep.PeakMCNodes)
	return b.String()
}

func openStore(t *testing.T) *vcache.Store {
	t.Helper()
	vc, err := vcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return vc
}

func runWithCache(t *testing.T, gen *Generator, vc *vcache.Store, conf Config) *Report {
	t.Helper()
	ctx := vcache.With(context.Background(), vc)
	rep, err := gen.GenerateCtx(ctx, endToEndPaths(t, gen), conf)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func hybridConf() Config {
	return Config{
		GA: ga.Config{Seed: 42, Pop: 40, MaxGens: 60, Stagnation: 15},
	}
}

// TestVCacheWarmRunIdentical: a warm rerun of the identical program must
// serve every unit from the cache and produce a report whose deterministic
// fields match the cold run's exactly.
func TestVCacheWarmRunIdentical(t *testing.T) {
	gen := setup(t, hybridSrc, "f")
	vc := openStore(t)
	cold := runWithCache(t, gen, vc, hybridConf())
	if cold.CachedUnits != 0 {
		t.Fatalf("cold run claims %d cached units", cold.CachedUnits)
	}
	if vc.Len() == 0 {
		t.Fatal("cold run stored nothing")
	}
	warm := runWithCache(t, gen, vc, hybridConf())
	n := len(cold.Results)
	residue := 0
	for _, r := range cold.Results {
		if r.Verdict != FoundByHeuristic {
			residue++
		}
	}
	if want := n + residue; warm.CachedUnits != want {
		t.Fatalf("warm run cached %d units, want %d (all %d GA searches + %d MC verdicts)",
			warm.CachedUnits, want, n, residue)
	}
	if got, want := renderResults(warm), renderResults(cold); got != want {
		t.Fatalf("warm report diverges from cold:\n--- cold\n%s--- warm\n%s", want, got)
	}
	for _, r := range warm.Results {
		if r.Verdict != FoundByHeuristic && !r.Cached {
			t.Errorf("warm stage-2 verdict for %s not marked Cached", r.Path.Key())
		}
	}
}

// TestVCacheHitsSurviveEdit: after an edit to one guard constant, the
// sliced queries of paths that never reach that guard are unchanged —
// their verdicts (including the infeasibility proofs) must replay from the
// cache, while the paths through the edited region re-prove; and the warm
// report must be identical to a clean cold analysis of the edited program.
//
// The edit targets a guard on purpose: an edit to a trap-irrelevant
// assignment (say the value stored to r) is zero-widthed out of every
// slice and hits everywhere, which is correct but tests nothing.
func TestVCacheHitsSurviveEdit(t *testing.T) {
	edited := strings.Replace(hybridSrc, "a < 120", "a < 110", 1)
	if edited == hybridSrc {
		t.Fatal("edit did not apply")
	}
	conf := hybridConf()
	conf.SkipGA = true // every path is a model-checker unit: exact counting

	vc := openStore(t)
	genA := setup(t, hybridSrc, "f")
	runWithCache(t, genA, vc, conf)

	genB := setup(t, edited, "f")
	warm := runWithCache(t, genB, vc, conf)
	clean := runWithCache(t, setup(t, edited, "f"), nil, conf)

	// White-box cross-check: a path hits exactly when its sliced key is
	// byte-identical across the edit. The CFGs are isomorphic, so path keys
	// line up one-to-one.
	keysA := map[string]vcache.Key{}
	for _, p := range endToEndPaths(t, genA) {
		low, err := genA.lowerQuery(p, conf)
		if err != nil {
			t.Fatal(err)
		}
		keysA[p.Key()] = genA.mcCacheKey(low, conf)
	}
	stable := 0
	for _, r := range warm.Results {
		low, err := genB.lowerQuery(r.Path, conf)
		if err != nil {
			t.Fatal(err)
		}
		hit := genB.mcCacheKey(low, conf) == keysA[r.Path.Key()]
		if hit {
			stable++
		}
		if hit != r.Cached {
			t.Errorf("path %s: key stable=%v but Cached=%v", r.Path.Key(), hit, r.Cached)
		}
	}
	if stable == 0 || stable == len(warm.Results) {
		t.Fatalf("edit left %d of %d sliced keys stable; want a strict subset", stable, len(warm.Results))
	}
	if warm.CachedUnits != stable {
		t.Fatalf("warm run cached %d units, want %d (the stable sliced keys)", warm.CachedUnits, stable)
	}
	if got, want := renderResults(warm), renderResults(clean); got != want {
		t.Fatalf("warm post-edit report diverges from clean:\n--- clean\n%s--- warm\n%s", want, got)
	}
}

// TestVCacheJournalWinsAndFeedsCache: units present in the run journal
// replay from the journal — never from the cache — and are copied into
// the cache so the next (journal-less) run hits.
func TestVCacheJournalWinsAndFeedsCache(t *testing.T) {
	conf := hybridConf()
	conf.SkipGA = true
	gen := setup(t, hybridSrc, "f")

	jpath := t.TempDir() + "/run.journal"
	j, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ctx := journal.With(context.Background(), j)
	targets := endToEndPaths(t, gen)
	first, err := gen.GenerateCtx(ctx, targets, conf)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Resume against the populated journal with an empty cache attached:
	// every unit must come from the journal (CachedUnits stays 0), and the
	// cache must come out populated.
	j2, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	vc := openStore(t)
	ctx = vcache.With(journal.With(context.Background(), j2), vc)
	resumed, err := gen.GenerateCtx(ctx, targets, conf)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CachedUnits != 0 {
		t.Fatalf("journal replay lost to the cache: %d cached units", resumed.CachedUnits)
	}
	if j2.Hits() == 0 {
		t.Fatal("nothing replayed from the journal")
	}
	if vc.Len() == 0 {
		t.Fatal("journaled units were not copied into the cache")
	}

	// A journal-less run against that cache replays everything.
	warm := runWithCache(t, gen, vc, conf)
	if warm.CachedUnits != len(warm.Results) {
		t.Fatalf("cached %d of %d units after journal population", warm.CachedUnits, len(warm.Results))
	}
	if got, want := renderResults(warm), renderResults(first); got != want {
		t.Fatalf("cache-replayed report diverges from the journaled original:\n--- first\n%s--- warm\n%s", want, got)
	}
}

// TestVCacheBudgetsKeyDegradedVerdicts: an Unknown produced by a node
// budget is reusable only under the identical budget — the key digests the
// budgets, so a changed budget misses and recomputes rather than replaying
// a stale degradation.
func TestVCacheBudgetsKeyDegradedVerdicts(t *testing.T) {
	conf := hybridConf()
	conf.SkipGA = true
	conf.MC = mc.Options{MaxNodes: 8}
	// An input space past the failover cap keeps the budget blow-up
	// degraded.
	gen := setup(t, needleWideSrc, "f")
	vc := openStore(t)

	starved := runWithCache(t, gen, vc, conf)
	unknown := 0
	for _, r := range starved.Results {
		if r.Verdict == Unknown {
			unknown++
		}
	}
	if unknown == 0 {
		t.Fatal("node budget of 8 degraded nothing; the premise is broken")
	}

	// Identical budgets: the degraded verdicts replay, causes included.
	replay := runWithCache(t, gen, vc, conf)
	if replay.CachedUnits != len(replay.Results) {
		t.Fatalf("cached %d of %d under identical budgets", replay.CachedUnits, len(replay.Results))
	}
	if got, want := renderResults(replay), renderResults(starved); got != want {
		t.Fatalf("replayed degraded report diverges:\n--- cold\n%s--- warm\n%s", want, got)
	}

	// A lifted budget must miss everything and resolve the paths.
	lifted := conf
	lifted.MC = mc.Options{}
	resolved := runWithCache(t, gen, vc, lifted)
	if resolved.CachedUnits != 0 {
		t.Fatalf("budget change still hit %d cached units", resolved.CachedUnits)
	}
	for _, r := range resolved.Results {
		if r.Verdict == Unknown {
			t.Errorf("path %s still unknown without the starved budget: %v", r.Path.Key(), r.Err)
		}
	}
}

// TestVCachePoisonedEnvFailsClosed: a Found record whose environment does
// not cover its path on the current program (a stale or corrupted entry)
// must be recomputed, not trusted. Each key is poisoned with an
// environment that genuinely covers a *different* path — the strongest
// form of staleness, since the env is plausible but wrong for its key.
func TestVCachePoisonedEnvFailsClosed(t *testing.T) {
	conf := hybridConf()
	conf.SkipGA = true
	gen := setup(t, hybridSrc, "f")
	targets := endToEndPaths(t, gen)
	vc := openStore(t)

	clean := runWithCache(t, gen, nil, conf)
	type donor struct {
		pathKey string
		env     envRecord
	}
	var donors []donor
	for _, r := range clean.Results {
		if r.Env == nil {
			continue
		}
		e := envRecord{}
		for d, v := range r.Env {
			e[d.Name] = v
		}
		donors = append(donors, donor{r.Path.Key(), e})
	}
	if len(donors) < 2 {
		t.Fatalf("need at least two covered paths to cross-poison, have %d", len(donors))
	}
	for _, p := range targets {
		var env envRecord
		for _, d := range donors {
			if d.pathKey != p.Key() {
				env = d.env
				break
			}
		}
		low, err := gen.lowerQuery(p, conf)
		if err != nil {
			t.Fatal(err)
		}
		vc.Put(gen.mcCacheKey(low, conf), &tgRecord{Verdict: int(FoundByModelChecker), Env: env})
	}

	rep := runWithCache(t, gen, vc, conf)
	if rep.CachedUnits != 0 {
		t.Fatalf("%d poisoned records replayed", rep.CachedUnits)
	}
	if got, want := renderResults(rep), renderResults(clean); got != want {
		t.Fatalf("recovery from poisoned cache diverges from clean:\n--- clean\n%s--- got\n%s", want, got)
	}
}
