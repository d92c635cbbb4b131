//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the differential fuzzing subsystem: generator determinism and
/// validity, the print -> parse -> print fixed-point property the repro
/// files depend on, the three-way differential oracle (including its
/// ability to catch deliberately injected transform bugs), the test-case
/// reducer, and campaign-level seed determinism.
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "fuzz/DifferentialRunner.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/ProgramGenerator.h"
#include "fuzz/TestCaseReducer.h"
#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "sim/Interpreter.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace helix;

namespace {

//===----------------------------------------------------------------------===//
// Generator.
//===----------------------------------------------------------------------===//

TEST(Generator, DeterministicPerSeed) {
  for (uint64_t Seed : {1ull, 42ull, 0xDEADBEEFull}) {
    auto A = generateProgram(Seed);
    auto B = generateProgram(Seed);
    EXPECT_EQ(A->toString(), B->toString()) << "seed " << Seed;
  }
  EXPECT_NE(generateProgram(1)->toString(), generateProgram(2)->toString());
}

TEST(Generator, ModulesVerifyAndHaveLoops) {
  unsigned TotalLoops = 0, TotalFuncs = 0, WithLists = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    auto M = generateProgram(Seed);
    EXPECT_EQ(verifyModule(*M), "") << "seed " << Seed;
    ASSERT_NE(M->findFunction("main"), nullptr);
    AnalysisManager AM(*M);
    for (Function *F : *M) {
      ++TotalFuncs;
      TotalLoops += AM.get<LoopInfo>(F).numLoops();
    }
    if (M->findGlobal("list") != ~0u)
      ++WithLists;
  }
  // Structural coverage across the seed range: plenty of loops and
  // functions, and the pointer-chain shape actually occurs.
  EXPECT_GT(TotalLoops, 80u);
  EXPECT_GT(TotalFuncs, 120u);
  EXPECT_GT(WithLists, 5u);
}

TEST(Generator, EmitsAllocaAndHeapBackedData) {
  // The points-to stressor: across a modest seed range the generator must
  // produce HeapAlloc-backed kernel scratch buffers and Alloca-backed
  // leaf spills (Stack/Heap abstract locations, not just globals) — and
  // none at all when the knob is off.
  unsigned WithHeap = 0, WithAlloca = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    std::string T = generateProgram(Seed)->toString();
    WithHeap += T.find("halloc") != std::string::npos;
    WithAlloca += T.find("alloca") != std::string::npos;
  }
  EXPECT_GT(WithHeap, 5u);
  EXPECT_GT(WithAlloca, 5u);

  GeneratorConfig Off;
  Off.LocalBufferProb = 0.0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    std::string T = generateProgram(Seed, Off)->toString();
    EXPECT_EQ(T.find("halloc"), std::string::npos) << "seed " << Seed;
    EXPECT_EQ(T.find("alloca"), std::string::npos) << "seed " << Seed;
  }
}

TEST(Generator, ProgramsRunAndReturnChecksum) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    auto M = generateProgram(Seed);
    Interpreter I(*M);
    I.setMaxInstructions(20ull * 1000 * 1000);
    ExecResult R = I.run();
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
    EXPECT_FALSE(R.ReturnValue.IsFloat);
  }
}

//===----------------------------------------------------------------------===//
// Round-trip property: the repro files depend on print -> parse -> print
// being a fixed point.
//===----------------------------------------------------------------------===//

TEST(RoundTrip, GeneratedModulesAreAFixedPoint) {
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    auto M = generateProgram(Seed);
    std::string T1 = M->toString();
    ParseResult P = parseModule(T1);
    ASSERT_TRUE(P.succeeded()) << "seed " << Seed << ": " << P.Error;
    EXPECT_EQ(verifyModule(*P.M), "") << "seed " << Seed;
    EXPECT_EQ(P.M->toString(), T1) << "seed " << Seed;
  }
}

TEST(RoundTrip, TransformedModulesAreAFixedPoint) {
  // HELIX-transformed modules print Wait/Signal/IterStart and the blocks
  // that inlining and lowering created; they must round-trip too (block
  // name uniquification in Function::createBlock is what makes repeated
  // ".cont" splitting safe).
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    auto M = generateProgram(Seed);
    auto TM = cloneModule(*M);
    AnalysisManager AM(*TM);
    std::vector<std::pair<Function *, BasicBlock *>> Targets;
    for (Function *F : *TM)
      for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
        Targets.push_back({F, L->header()});
    HelixOptions Opts;
    for (auto &[F, H] : Targets)
      (void)parallelizeLoop(AM, F, H, Opts);
    std::string T1 = TM->toString();
    ParseResult P = parseModule(T1);
    ASSERT_TRUE(P.succeeded()) << "seed " << Seed << ": " << P.Error;
    EXPECT_EQ(P.M->toString(), T1) << "seed " << Seed;
  }
}

TEST(RoundTrip, NonFiniteFloatImmediatesParse) {
  const char *Text = "func @main(0) {\n"
                     "entry:\n"
                     "  r0 = mov inf\n"
                     "  r1 = fadd r0, -inf\n"
                     "  r2 = fmul r1, nan\n"
                     "  ret r2\n"
                     "}\n";
  ParseResult P = parseModule(Text);
  ASSERT_TRUE(P.succeeded()) << P.Error;
  EXPECT_EQ(P.M->toString(), std::string(Text) + "\n");
  const Instruction *Mov =
      P.M->findFunction("main")->entry()->instr(0);
  ASSERT_TRUE(Mov->operand(0).isImmFloat());
  EXPECT_TRUE(std::isinf(Mov->operand(0).floatValue()));
}

TEST(RoundTrip, DuplicateBlockNamesAreUniquified) {
  Module M;
  Function *F = M.createFunction("f", 0);
  BasicBlock *A = F->createBlock("x.cont");
  BasicBlock *B = F->createBlock("x.cont");
  BasicBlock *C = F->createBlock("x.cont");
  EXPECT_EQ(A->name(), "x.cont");
  EXPECT_NE(B->name(), A->name());
  EXPECT_NE(C->name(), B->name());
}

//===----------------------------------------------------------------------===//
// Differential oracle.
//===----------------------------------------------------------------------===//

DiffConfig quickDiff() {
  DiffConfig C;
  C.ThreadCounts = {2, 3}; // keep the test fast; the CLI defaults to 2/4/6
  return C;
}

TEST(Differential, CleanOnGeneratedPrograms) {
  for (uint64_t Seed = 1; Seed <= 15; ++Seed) {
    auto M = generateProgram(Seed);
    DiffOutcome O = runDifferential(*M, quickDiff());
    EXPECT_FALSE(O.Divergence) << "seed " << Seed << ": " << O.Detail;
    EXPECT_FALSE(O.Inconclusive) << "seed " << Seed << ": " << O.Detail;
    EXPECT_TRUE(O.SeqOk);
    EXPECT_GT(O.LoopsAttempted, 0u);
  }
}

TEST(Differential, DeterministicVerdicts) {
  for (uint64_t Seed : {3ull, 9ull}) {
    auto M = generateProgram(Seed);
    DiffOutcome A = runDifferential(*M, quickDiff());
    DiffOutcome B = runDifferential(*M, quickDiff());
    EXPECT_EQ(A.Divergence, B.Divergence);
    EXPECT_EQ(A.SeqChecksum, B.SeqChecksum);
    EXPECT_EQ(A.SeqCycles, B.SeqCycles);
    EXPECT_EQ(A.LoopsTransformed, B.LoopsTransformed);
  }
}

TEST(Differential, CollectsPassTimings) {
  auto M = generateProgram(5);
  DiffOutcome O = runDifferential(*M, quickDiff());
  ASSERT_FALSE(O.PassTimings.empty());
  bool SawSchedule = false;
  for (const LoopPassTiming &T : O.PassTimings) {
    EXPECT_GT(T.Invocations, 0u);
    SawSchedule |= T.Pass == "schedule";
  }
  EXPECT_TRUE(SawSchedule);
}

/// The injected-bug regression case: campaign seed 7, case 0 is known to
/// produce a module where FlipFirstBodyOp lands on a live accumulator
/// update (asserted below), so the oracle must catch it deterministically.
uint64_t injectedCaseSeed() { return fuzzCaseSeed(7, 0); }

TEST(Differential, InjectedTransformBugIsCaught) {
  auto M = generateProgram(injectedCaseSeed());
  DiffConfig C = quickDiff();
  C.Inject = BugInjection::FlipFirstBodyOp;
  DiffOutcome O = runDifferential(*M, C);
  EXPECT_TRUE(O.InjectionApplied);
  ASSERT_TRUE(O.Divergence) << "oracle missed the injected bug";
  EXPECT_EQ(O.DivergentKind, DiffOutcome::Kind::Checksum);
  EXPECT_EQ(O.DivergentLeg, DiffOutcome::Leg::TransformedSeq);

  // Several more cases of the same campaign: the flip lands and is caught
  // on every one of them (reachability-aware target choice).
  for (unsigned Case = 1; Case != 6; ++Case) {
    auto M2 = generateProgram(fuzzCaseSeed(7, Case));
    DiffOutcome O2 = runDifferential(*M2, C);
    EXPECT_TRUE(O2.InjectionApplied) << "case " << Case;
    EXPECT_TRUE(O2.Divergence) << "case " << Case;
  }
}

TEST(Differential, WaitDroppingInjectionApplies) {
  // Dropping Waits only breaks true concurrency, so divergence is a race
  // and cannot be asserted deterministically — but the corruption must
  // find a target (a segment with Waits) on programs with carried deps.
  bool Applied = false;
  DiffConfig C = quickDiff();
  C.Inject = BugInjection::DropFirstSegmentWaits;
  for (uint64_t Seed = 1; Seed <= 8 && !Applied; ++Seed) {
    auto M = generateProgram(Seed);
    Applied = runDifferential(*M, C).InjectionApplied;
  }
  EXPECT_TRUE(Applied);
}

//===----------------------------------------------------------------------===//
// Reducer.
//===----------------------------------------------------------------------===//

TEST(Reducer, ShrinksInjectedBugToSmallRepro) {
  // The acceptance-criteria regression: the injected transform bug is
  // caught AND the reducer shrinks the failing module to a <= 30
  // instruction repro that still diverges.
  auto M = generateProgram(injectedCaseSeed());
  DiffConfig C;
  C.ThreadCounts = {}; // the divergence is sequential; skip threads
  C.Inject = BugInjection::FlipFirstBodyOp;
  DiffOutcome Original = runDifferential(*M, C);
  ASSERT_TRUE(Original.Divergence);
  C.MaxInstructions = Original.SeqInstructions * 4 + 10000;

  ReduceResult R = reduceTestCase(*M, [&](const Module &Cand) {
    DiffOutcome O = runDifferential(Cand, C);
    return O.Divergence && O.DivergentKind == DiffOutcome::Kind::Checksum;
  });
  ASSERT_NE(R.M, nullptr);
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
  EXPECT_LE(R.InstrsAfter, 30u)
      << "reducer left a big repro:\n"
      << R.Text;
  // The reduced module still verifies and still diverges.
  EXPECT_EQ(verifyModule(*R.M), "");
  DiffOutcome Again = runDifferential(*R.M, C);
  EXPECT_TRUE(Again.Divergence);
  EXPECT_EQ(Again.DivergentKind, DiffOutcome::Kind::Checksum);
}

TEST(Reducer, IsDeterministic) {
  auto M = generateProgram(injectedCaseSeed());
  DiffConfig C;
  C.ThreadCounts = {};
  C.Inject = BugInjection::FlipFirstBodyOp;
  // Tight replay budget (like the campaign driver uses): endless-loop
  // candidates die cheaply instead of burning the full default budget.
  C.MaxInstructions = runDifferential(*M, C).SeqInstructions * 4 + 10000;
  auto Oracle = [&](const Module &Cand) {
    DiffOutcome O = runDifferential(Cand, C);
    return O.Divergence && O.DivergentKind == DiffOutcome::Kind::Checksum;
  };
  ReduceResult A = reduceTestCase(*M, Oracle);
  ReduceResult B = reduceTestCase(*M, Oracle);
  EXPECT_EQ(A.Text, B.Text);
  EXPECT_EQ(A.EditsAccepted, B.EditsAccepted);
}

TEST(Reducer, PreservesOraclePropertyUnderSimplerPredicates) {
  // Reduction with a structural oracle: keep any module that still calls
  // @kernel0 from @main. Everything else should largely disappear while
  // every intermediate step parses and verifies (enforced inside).
  auto M = generateProgram(11);
  ReduceResult R = reduceTestCase(*M, [](const Module &Cand) {
    const Function *Main = Cand.findFunction("main");
    if (!Main || !Cand.findFunction("kernel0"))
      return false;
    for (BasicBlock *BB : *Main)
      for (Instruction *I : *BB)
        if (I->isCall() && I->callee()->name() == "kernel0")
          return true;
    return false;
  });
  ASSERT_NE(R.M, nullptr);
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore / 2);
  EXPECT_NE(R.M->findFunction("kernel0"), nullptr);
}

//===----------------------------------------------------------------------===//
// Campaign driver.
//===----------------------------------------------------------------------===//

TEST(Campaign, SeedDeterminismAcrossWorkerCounts) {
  FuzzOptions A;
  A.Seed = 31;
  A.Runs = 8;
  A.Jobs = 1;
  A.Diff.ThreadCounts = {2};
  FuzzOptions B = A;
  B.Jobs = 4; // execution policy only
  FuzzSummary SA = runFuzzCampaign(A);
  FuzzSummary SB = runFuzzCampaign(B);
  EXPECT_EQ(SA.Clean, SB.Clean);
  EXPECT_EQ(SA.Divergent, SB.Divergent);
  EXPECT_EQ(SA.Inconclusive, SB.Inconclusive);
  EXPECT_EQ(SA.LoopsTransformed, SB.LoopsTransformed);
  ASSERT_EQ(SA.Failures.size(), SB.Failures.size());
  for (size_t K = 0; K != SA.Failures.size(); ++K) {
    EXPECT_EQ(SA.Failures[K].CaseSeed, SB.Failures[K].CaseSeed);
    EXPECT_EQ(SA.Failures[K].Detail, SB.Failures[K].Detail);
  }
}

TEST(Campaign, CleanRunReportsCoverage) {
  FuzzOptions O;
  O.Seed = 5;
  O.Runs = 10;
  O.Diff.ThreadCounts = {2};
  FuzzSummary S = runFuzzCampaign(O);
  EXPECT_EQ(S.Clean, 10u);
  EXPECT_TRUE(S.Failures.empty());
  EXPECT_GT(S.LoopsTransformed, 0u);
  EXPECT_FALSE(S.PassTimings.empty());
}

TEST(Campaign, CaseSeedReplayReproducesExactCase) {
  // The replay path a maintainer uses on a printed failure: --case-seed
  // must regenerate the very module of the failing campaign case.
  FuzzOptions Campaign;
  Campaign.Seed = 7;
  Campaign.Runs = 1;
  Campaign.Shrink = false;
  Campaign.Diff.ThreadCounts = {2};
  Campaign.Diff.Inject = BugInjection::FlipFirstBodyOp;
  FuzzSummary S = runFuzzCampaign(Campaign);
  ASSERT_EQ(S.Failures.size(), 1u);

  FuzzOptions Replay = Campaign;
  Replay.Seed = 999;                              // ignored
  Replay.CaseSeeds = {S.Failures[0].CaseSeed};
  FuzzSummary R = runFuzzCampaign(Replay);
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].CaseSeed, S.Failures[0].CaseSeed);
  EXPECT_EQ(R.Failures[0].Detail, S.Failures[0].Detail);
  EXPECT_EQ(R.Failures[0].ReproText, S.Failures[0].ReproText);
}

TEST(Campaign, InlinedCalleesStartFromZeroedRegisters) {
  // Each of these cases inlines a callee that reads a register before
  // writing it into a loop. A real call reads 0 there; the inlined copy
  // used to read the previous trip's value, so the transformed-sequential
  // checksum diverged from the sequential one.
  FuzzOptions Replay;
  Replay.Shrink = false;
  Replay.Diff.ThreadCounts = {2, 4};
  Replay.CaseSeeds = {0x168318a629f3ebe4ull, 0x5780534e642427a0ull,
                      0x68d74751a7122a75ull, 0xa177fd70ed0c709full,
                      0x2073bbe0a93be224ull};
  FuzzSummary S = runFuzzCampaign(Replay);
  EXPECT_EQ(S.Runs, 5u);
  EXPECT_EQ(S.Clean, 5u);
  EXPECT_EQ(S.Divergent, 0u);
  EXPECT_EQ(S.Inconclusive, 0u);
  for (const FuzzFailure &F : S.Failures)
    ADD_FAILURE() << std::hex << F.CaseSeed << ": " << F.Detail;
}

TEST(Campaign, CoverageGuidedIsDeterministicAcrossWorkerCounts) {
  FuzzOptions A;
  A.Seed = 101;
  A.Runs = 24;
  A.RoundSize = 8;
  A.CoverageGuided = true;
  A.Jobs = 1;
  A.Shrink = false;
  A.Diff.ThreadCounts = {2};
  FuzzOptions B = A;
  B.Jobs = 4; // execution policy only: the schedule must not change
  FuzzSummary SA = runFuzzCampaign(A);
  FuzzSummary SB = runFuzzCampaign(B);
  EXPECT_EQ(SA.Clean, SB.Clean);
  EXPECT_EQ(SA.Divergent, SB.Divergent);
  EXPECT_EQ(SA.LoopsAttempted, SB.LoopsAttempted);
  EXPECT_EQ(SA.LoopsTransformed, SB.LoopsTransformed);
  ASSERT_EQ(SA.Variants.size(), SB.Variants.size());
  unsigned Total = 0;
  for (size_t K = 0; K != SA.Variants.size(); ++K) {
    EXPECT_EQ(SA.Variants[K].Name, SB.Variants[K].Name);
    EXPECT_EQ(SA.Variants[K].Cases, SB.Variants[K].Cases);
    EXPECT_EQ(SA.Variants[K].Untransformed, SB.Variants[K].Untransformed);
    Total += SA.Variants[K].Cases;
  }
  EXPECT_EQ(Total, SA.Runs); // every case landed on exactly one variant
}

TEST(Campaign, CoverageGuidedFailureReplaysWithItsVariant) {
  // A coverage-guided campaign names the variant of each failing case;
  // --case-seed plus that variant must regenerate the very same module.
  FuzzOptions Campaign;
  Campaign.Seed = 13;
  Campaign.Runs = 6;
  Campaign.RoundSize = 2;
  Campaign.CoverageGuided = true;
  Campaign.Shrink = false;
  Campaign.Diff.ThreadCounts = {2};
  Campaign.Diff.Inject = BugInjection::FlipFirstBodyOp;
  FuzzSummary S = runFuzzCampaign(Campaign);
  ASSERT_FALSE(S.Failures.empty());
  const FuzzFailure &F = S.Failures[0];
  EXPECT_LT(F.Variant, fuzzScheduleVariants(Campaign.Gen).size());

  FuzzOptions Replay = Campaign;
  Replay.CoverageGuided = false;
  Replay.CaseSeeds = {F.CaseSeed};
  Replay.ReplayVariant = F.Variant;
  FuzzSummary R = runFuzzCampaign(Replay);
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Failures[0].ReproText, F.ReproText);
  EXPECT_EQ(R.Failures[0].Detail, F.Detail);
}

TEST(Campaign, CoverageGuidedBiasFollowsUntransformedRate) {
  // The weighting favours variants with a higher historical rate of
  // Untransformed verdicts: a variant whose cases all failed to transform
  // must draw strictly more weight than one whose cases all transformed,
  // and with history all-zero the split is uniform (pure exploration).
  std::vector<uint64_t> Uniform = fuzzVariantWeights({0, 0, 0}, {0, 0, 0});
  EXPECT_EQ(Uniform[0], Uniform[1]);
  EXPECT_EQ(Uniform[1], Uniform[2]);

  // 10 cases each; variant 1 never transformed, variant 0 always did,
  // variant 2 is untried.
  std::vector<uint64_t> W = fuzzVariantWeights({10, 10, 0}, {0, 10, 0});
  EXPECT_GT(W[1], W[0] * 5); // rate 100% vs 0%: heavily favoured
  EXPECT_GT(W[2], W[0]);     // untried stays attractive (exploration)
  EXPECT_GE(W[0], 1u);       // but nothing is starved
  EXPECT_GE(W[1], W[2]);

  // Drawing with those weights skews the schedule accordingly (same draw
  // loop the campaign uses).
  Rng Draw(42);
  uint64_t Total = W[0] + W[1] + W[2];
  std::vector<unsigned> Picked(3, 0);
  for (unsigned I = 0; I != 3000; ++I) {
    uint64_t Pick = Draw.nextBelow(Total);
    unsigned V = 0;
    while (Pick >= W[V]) {
      Pick -= W[V];
      ++V;
    }
    ++Picked[V];
  }
  EXPECT_GT(Picked[1], Picked[0] * 4);
  EXPECT_GT(Picked[1], Picked[2]);

  // Variant configs are derived deterministically: two calls agree, and
  // the table contains the shapes the schedule is meant to explore.
  std::vector<FuzzVariant> Variants = fuzzScheduleVariants(GeneratorConfig());
  ASSERT_GE(Variants.size(), 2u);
  EXPECT_EQ(Variants[1].Name, "flat");
  EXPECT_EQ(Variants[1].Config.MaxLoopDepth, 1u);
  std::vector<FuzzVariant> Again = fuzzScheduleVariants(GeneratorConfig());
  ASSERT_EQ(Variants.size(), Again.size());
  for (size_t K = 0; K != Variants.size(); ++K)
    EXPECT_EQ(Variants[K].Name, Again[K].Name);
}

TEST(Campaign, InjectedBugProducesShrunkFailure) {
  FuzzOptions O;
  O.Seed = 7;
  O.Runs = 1; // exactly the injectedCaseSeed() case
  O.Diff.ThreadCounts = {2};
  O.Diff.Inject = BugInjection::FlipFirstBodyOp;
  FuzzSummary S = runFuzzCampaign(O);
  ASSERT_EQ(S.Divergent, 1u);
  ASSERT_EQ(S.Failures.size(), 1u);
  const FuzzFailure &F = S.Failures[0];
  EXPECT_EQ(F.CaseSeed, injectedCaseSeed());
  EXPECT_FALSE(F.ReproText.empty());
  ASSERT_FALSE(F.ShrunkText.empty());
  EXPECT_LE(F.ShrunkInstrs, 30u);
  // The persisted shrunk repro is itself parseable IR.
  ParseResult P = parseModule(F.ShrunkText);
  ASSERT_TRUE(P.succeeded()) << P.Error;
  EXPECT_EQ(verifyModule(*P.M), "");
}

} // namespace
