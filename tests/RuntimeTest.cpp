//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the real multi-threaded runtime: every workload
/// idiom, transformed and executed on actual std::threads, must compute
/// exactly what the sequential interpreter computes. Repeated runs shake
/// out ordering races.
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopNestGraph.h"
#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "runtime/ThreadedRuntime.h"
#include "workloads/WorkloadBuilder.h"

#include "HostileModules.h"

#include <gtest/gtest.h>

using namespace helix;

namespace {

/// Transforms every loop of every kernel function of \p M (in a clone) and
/// returns the clone plus loop metadata.
struct Prepared {
  std::unique_ptr<Module> M;
  std::vector<ParallelLoopInfo> Loops;
};

Prepared prepare(const Module &Original) {
  Prepared Out;
  CloneMap Map;
  Out.M = cloneModule(Original, &Map);
  AnalysisManager AM(*Out.M);
  HelixOptions Opts;
  std::vector<std::pair<Function *, BasicBlock *>> Targets;
  for (Function *F : *Out.M) {
    if (F->name().find(".k") == std::string::npos)
      continue;
    LoopInfo &LI = AM.get<LoopInfo>(F);
    // Outermost loops only (the pipeline's selection never nests choices).
    for (Loop *L : LI.topLevelLoops())
      Targets.push_back({F, L->header()});
  }
  for (auto &[F, H] : Targets) {
    auto PLI = parallelizeLoop(AM, F, H, Opts);
    if (PLI)
      Out.Loops.push_back(std::move(*PLI));
  }
  return Out;
}

int64_t sequentialResult(Module &M) {
  Interpreter I(M);
  ExecResult R = I.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.ReturnValue.asInt();
}

class ThreadedIdiom : public ::testing::TestWithParam<KernelIdiom> {};

TEST_P(ThreadedIdiom, MatchesSequential) {
  WorkloadSpec Spec;
  Spec.Name = "rt";
  Spec.Seed = 5;
  Spec.MainRepeat = 2;
  Spec.Phases = {{2, false, {{GetParam(), 80, 30, 16}}}};
  auto M = buildWorkload(Spec);
  int64_t Ref = sequentialResult(*M);

  Prepared P = prepare(*M);
  ASSERT_FALSE(P.Loops.empty());
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);
  RuntimeStats Stats;
  ExecResult R = runThreaded(*P.M, Ptrs, 4, &Stats);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), Ref);
  EXPECT_GT(Stats.ParallelInvocations, 0u);
  EXPECT_GT(Stats.ParallelIterations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllIdioms, ThreadedIdiom,
    ::testing::Values(KernelIdiom::DoAll, KernelIdiom::DoAllFP,
                      KernelIdiom::Reduction, KernelIdiom::PointerChase,
                      KernelIdiom::Histogram, KernelIdiom::Stencil,
                      KernelIdiom::Branchy, KernelIdiom::Nested2D,
                      KernelIdiom::TwoAccum));

class ThreadedSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadedSuite, WholeBenchmarkMatches) {
  auto M = buildSpecWorkload(GetParam());
  ASSERT_NE(M, nullptr);
  int64_t Ref = sequentialResult(*M);
  Prepared P = prepare(*M);
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);
  RuntimeStats Stats;
  ExecResult R = runThreaded(*P.M, Ptrs, 6, &Stats);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), Ref);
  EXPECT_GT(Stats.ParallelInvocations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Spec2000, ThreadedSuite,
                         ::testing::Values("gzip", "art", "mcf", "parser",
                                           "twolf", "vpr"));

TEST(ThreadedRuntime, RepeatedRunsAreDeterministic) {
  // The schedule is nondeterministic; the result must not be.
  auto M = buildSpecWorkload("bzip2");
  int64_t Ref = sequentialResult(*M);
  Prepared P = prepare(*M);
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);
  for (int Rep = 0; Rep != 3; ++Rep) {
    ExecResult R = runThreaded(*P.M, Ptrs, 3 + Rep, nullptr);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.ReturnValue.asInt(), Ref) << "repetition " << Rep;
  }
}

TEST(ThreadedRuntime, WorksWithOneThread) {
  auto M = buildSpecWorkload("gap");
  int64_t Ref = sequentialResult(*M);
  Prepared P = prepare(*M);
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);
  ExecResult R = runThreaded(*P.M, Ptrs, 1, nullptr);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), Ref);
}

TEST(ThreadedRuntime, NoLoopsMeansPlainExecution) {
  auto M = buildSpecWorkload("mcf");
  int64_t Ref = sequentialResult(*M);
  ExecResult R = runThreaded(*M, {}, 4, nullptr);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), Ref);
}

/// A reduction loop whose iteration 40 divides by zero (divisor = 40 - i).
/// The loop-carried accumulator forces a sequential segment, so workers past
/// the trapping iteration are parked in the Wait spin when the trap lands —
/// they must observe Invocation::Failed and abandon, not spin forever.
std::unique_ptr<Module> trappingModule() {
  const char *Text = "global @trapstress.A 64\n"
                     "\n"
                     "func @trapstress.k(1) {\n"
                     "entry:\n"
                     "  r1 = mov 0\n"
                     "  r2 = mov r0\n"
                     "  br header\n"
                     "header:\n"
                     "  r3 = cmplt r1, 64\n"
                     "  condbr r3, body, exit\n"
                     "body:\n"
                     "  r4 = add @trapstress.A, r1\n"
                     "  r5 = load r4\n"
                     "  r6 = mov 40\n"
                     "  r7 = sub r6, r1\n"
                     "  r8 = div r5, r7\n"
                     "  r2 = add r2, r8\n"
                     "  r1 = add r1, 1\n"
                     "  br header\n"
                     "exit:\n"
                     "  ret r2\n"
                     "}\n"
                     "\n"
                     "func @main(0) {\n"
                     "entry:\n"
                     "  r0 = mov 0\n"
                     "  br hdr\n"
                     "hdr:\n"
                     "  r1 = cmplt r0, 64\n"
                     "  condbr r1, fill, go\n"
                     "fill:\n"
                     "  r2 = add @trapstress.A, r0\n"
                     "  r3 = add r0, 7\n"
                     "  store r3, r2\n"
                     "  r0 = add r0, 1\n"
                     "  br hdr\n"
                     "go:\n"
                     "  r4 = call @trapstress.k(0)\n"
                     "  ret r4\n"
                     "}\n";
  ParseResult R = parseModule(Text);
  EXPECT_TRUE(R.succeeded()) << R.Error;
  return std::move(R.M);
}

TEST(ThreadedRuntime, TrappingIterationAbandonsDeadIterations) {
  auto M = trappingModule();
  ASSERT_NE(M, nullptr);

  Prepared P = prepare(*M);
  ASSERT_FALSE(P.Loops.empty());
  // The point of the test is the Wait-spin abandonment path: the reduction
  // must actually have produced a sequential segment with Waits for later
  // iterations to park on.
  bool HasWaits = false;
  for (const ParallelLoopInfo &L : P.Loops)
    for (const SequentialSegment &S : L.Segments)
      HasWaits |= !S.Waits.empty();
  ASSERT_TRUE(HasWaits) << "reduction produced no sequential segment";

  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);

  // Stress the failure path across thread counts and repetitions: with more
  // threads than remaining live iterations, several workers are guaranteed
  // to be spinning (on Wait or on the IterStart chain) when iteration 40
  // traps. Every run must terminate with a failure, never hang or crash.
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    for (int Rep = 0; Rep != 8; ++Rep) {
      ExecResult R = runThreaded(*P.M, Ptrs, Threads, nullptr);
      EXPECT_FALSE(R.Ok) << Threads << " threads, repetition " << Rep;
      EXPECT_FALSE(R.Error.empty());
    }
  }
}

/// Hostile addresses end the threaded run with a structured error, on
/// the main context and inside a worker's iteration alike — never by
/// killing the process.
TEST(ThreadedRuntime, HostileAddressesAreStructuredErrors) {
  for (const HostileModule &H : hostileModules()) {
    SCOPED_TRACE(H.Name);
    ParseResult P = parseModule(H.Text);
    ASSERT_TRUE(P.succeeded()) << P.Error;
    ExecResult R = runThreaded(*P.M, {}, 2, nullptr);
    if (H.Trap) {
      EXPECT_FALSE(R.Ok);
      EXPECT_NE(R.Error.find(H.Trap), std::string::npos) << R.Error;
    } else {
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.ReturnValue.asInt(), 0);
    }
  }

  // The same operations in iteration 5 of a parallelized loop: a worker
  // traps, the invocation fails, the run reports it.
  for (const char *Wild : {"  store r1, r8\n", "  r9 = halloc r8\n"}) {
    SCOPED_TRACE(Wild);
    std::string Text = "global @wild.A 16\n"
                       "\n"
                       "func @wild.k(0) {\n"
                       "entry:\n"
                       "  r1 = mov 0\n"
                       "  br header\n"
                       "header:\n"
                       "  r3 = cmplt r1, 16\n"
                       "  condbr r3, body, exit\n"
                       "body:\n"
                       "  r4 = add @wild.A, r1\n"
                       "  r6 = cmpeq r1, 5\n"
                       "  r7 = mul r6, 4611686018427387904\n"
                       "  r8 = add r4, r7\n" +
                       std::string(Wild) +
                       "  r1 = add r1, 1\n"
                       "  br header\n"
                       "exit:\n"
                       "  ret r1\n"
                       "}\n"
                       "\n"
                       "func @main(0) {\n"
                       "entry:\n"
                       "  r0 = call @wild.k()\n"
                       "  ret r0\n"
                       "}\n";
    ParseResult Parsed = parseModule(Text);
    ASSERT_TRUE(Parsed.succeeded()) << Parsed.Error;
    Prepared P = prepare(*Parsed.M);
    ASSERT_FALSE(P.Loops.empty());
    std::vector<const ParallelLoopInfo *> Ptrs;
    for (auto &L : P.Loops)
      Ptrs.push_back(&L);
    for (unsigned Threads : {2u, 4u}) {
      ExecResult R = runThreaded(*P.M, Ptrs, Threads, nullptr);
      EXPECT_FALSE(R.Ok) << Threads << " threads";
      EXPECT_FALSE(R.Error.empty());
    }
  }
}

} // namespace
