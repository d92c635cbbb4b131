//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the decoded execution engine against the retained
/// tree-walk reference: ExecResult fields, observer event streams, loop
/// traces and runtime statistics must match instruction-for-instruction on
/// every workload idiom, plus decode/cache semantics and a fuzz smoke
/// running all three oracle legs on the engine.
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "fuzz/Fuzzer.h"
#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "runtime/ThreadedRuntime.h"
#include "sim/Interpreter.h"
#include "sim/TraceCollector.h"
#include "sim/TreeWalkInterpreter.h"
#include "workloads/WorkloadBuilder.h"

#include "HostileModules.h"

#include <gtest/gtest.h>

using namespace helix;

namespace {

void expectResultsEqual(const ExecResult &Ref, const ExecResult &Got) {
  EXPECT_EQ(Ref.Ok, Got.Ok) << Ref.Error << " vs " << Got.Error;
  EXPECT_EQ(Ref.Error, Got.Error);
  EXPECT_EQ(Ref.BudgetExhausted, Got.BudgetExhausted);
  EXPECT_TRUE(Ref.ReturnValue == Got.ReturnValue);
  EXPECT_EQ(Ref.Cycles, Got.Cycles);
  EXPECT_EQ(Ref.Instructions, Got.Instructions);
}

void expectTracesEqual(const TraceCollector &Ref, const TraceCollector &Got) {
  EXPECT_EQ(Ref.outsideCycles(), Got.outsideCycles());
  ASSERT_EQ(Ref.traces().size(), Got.traces().size());
  for (size_t L = 0; L != Ref.traces().size(); ++L) {
    const LoopTraces &RT = Ref.traces()[L];
    const LoopTraces &GT = Got.traces()[L];
    ASSERT_EQ(RT.Invocations.size(), GT.Invocations.size()) << "loop " << L;
    for (size_t V = 0; V != RT.Invocations.size(); ++V) {
      const InvocationTrace &RI = RT.Invocations[V];
      const InvocationTrace &GI = GT.Invocations[V];
      EXPECT_EQ(RI.SeqCycles, GI.SeqCycles);
      ASSERT_EQ(RI.Iterations.size(), GI.Iterations.size())
          << "loop " << L << " invocation " << V;
      for (size_t I = 0; I != RI.Iterations.size(); ++I) {
        const IterationTrace &RIt = RI.Iterations[I];
        const IterationTrace &GIt = GI.Iterations[I];
        EXPECT_EQ(RIt.TotalCycles, GIt.TotalCycles);
        EXPECT_EQ(RIt.PrologueCycles, GIt.PrologueCycles);
        EXPECT_EQ(RIt.SegmentCycles, GIt.SegmentCycles);
        EXPECT_EQ(RIt.NumLoads, GIt.NumLoads);
        ASSERT_EQ(RIt.Events.size(), GIt.Events.size())
            << "loop " << L << " invocation " << V << " iteration " << I;
        for (size_t E = 0; E != RIt.Events.size(); ++E) {
          EXPECT_EQ(RIt.Events[E].K, GIt.Events[E].K);
          EXPECT_EQ(RIt.Events[E].A, GIt.Events[E].A);
          EXPECT_EQ(RIt.Events[E].C, GIt.Events[E].C);
        }
      }
    }
  }
}

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
    for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
      Targets.push_back({F, L->header()});
  }
  for (auto &[F, H] : Targets) {
    auto PLI = parallelizeLoop(AM, F, H, Opts);
    if (PLI)
      Out.Loops.push_back(std::move(*PLI));
  }
  return Out;
}

std::unique_ptr<Module> idiomWorkload(KernelIdiom Idiom) {
  WorkloadSpec Spec;
  Spec.Name = "exec";
  Spec.Seed = 11;
  Spec.MainRepeat = 2;
  Spec.Phases = {{2, false, {{Idiom, 80, 30, 16}}}};
  return buildWorkload(Spec);
}

class DecodedIdiom : public ::testing::TestWithParam<KernelIdiom> {};

/// Plain sequential execution: decoded run must match the tree-walk run in
/// result, error, cycle and instruction accounting.
TEST_P(DecodedIdiom, SequentialMatchesTreeWalk) {
  auto M = idiomWorkload(GetParam());
  TreeWalkInterpreter Ref(*M);
  ExecResult RefR = Ref.run();
  Interpreter Dec(*M);
  ExecResult DecR = Dec.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;
  expectResultsEqual(RefR, DecR);
}

/// The tracing driver: run the transformed module under a TraceCollector
/// on both engines; every invocation, iteration and event must agree.
TEST_P(DecodedIdiom, TracesMatchTreeWalk) {
  auto M = idiomWorkload(GetParam());
  Prepared P = prepare(*M);
  ASSERT_FALSE(P.Loops.empty());
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);

  TraceCollector RefTC(Ptrs);
  TreeWalkInterpreter Ref(*P.M);
  Ref.setObserver(&RefTC);
  ExecResult RefR = Ref.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;

  TraceCollector DecTC(Ptrs);
  Interpreter Dec(*P.M);
  Dec.setObserver(&DecTC);
  ExecResult DecR = Dec.run();

  expectResultsEqual(RefR, DecR);
  expectTracesEqual(RefTC, DecTC);
}

/// The threaded driver: decoded workers must compute the sequential
/// checksum, and the runtime statistics (invocations, iterations, signals)
/// must be thread-count invariant — every iteration executes the same
/// decoded code no matter which worker runs it.
TEST_P(DecodedIdiom, ThreadedMatchesSequentialAndStatsAreStable) {
  auto M = idiomWorkload(GetParam());
  TreeWalkInterpreter Ref(*M);
  ExecResult RefR = Ref.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;

  Prepared P = prepare(*M);
  ASSERT_FALSE(P.Loops.empty());
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);

  RuntimeStats First;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    RuntimeStats Stats;
    ExecResult R = runThreaded(*P.M, Ptrs, Threads, &Stats);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.ReturnValue == RefR.ReturnValue) << "threads " << Threads;
    EXPECT_GT(Stats.ParallelInvocations, 0u);
    EXPECT_GT(Stats.ParallelIterations, 0u);
    if (Threads == 1u) {
      First = Stats;
      continue;
    }
    EXPECT_EQ(Stats.ParallelInvocations, First.ParallelInvocations);
    EXPECT_EQ(Stats.ParallelIterations, First.ParallelIterations);
    EXPECT_EQ(Stats.SignalsSent, First.SignalsSent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIdioms, DecodedIdiom,
    ::testing::Values(KernelIdiom::DoAll, KernelIdiom::DoAllFP,
                      KernelIdiom::Reduction, KernelIdiom::PointerChase,
                      KernelIdiom::Histogram, KernelIdiom::Stencil,
                      KernelIdiom::Branchy, KernelIdiom::Nested2D,
                      KernelIdiom::TwoAccum));

/// Observer event streams must be identical element-for-element: same
/// instructions in the same order with the same costs, same edges.
TEST(ExecEngine, ObserverStreamMatchesTreeWalk) {
  struct Recorder : ExecObserver {
    std::vector<std::pair<const Instruction *, unsigned>> Instrs;
    std::vector<std::pair<const BasicBlock *, const BasicBlock *>> Edges;
    std::vector<unsigned> Depths;
    void onInstruction(const Instruction *I, unsigned Cycles,
                       ExecState &S) override {
      Instrs.push_back({I, Cycles});
      Depths.push_back(S.callDepth());
    }
    void onEdge(const BasicBlock *From, const BasicBlock *To,
                ExecState &) override {
      Edges.push_back({From, To});
    }
  };

  auto M = buildSpecWorkload("mcf");
  Recorder Ref, Dec;
  TreeWalkInterpreter RefI(*M);
  RefI.setObserver(&Ref);
  ASSERT_TRUE(RefI.run().Ok);
  Interpreter DecI(*M);
  DecI.setObserver(&Dec);
  ASSERT_TRUE(DecI.run().Ok);

  ASSERT_EQ(Ref.Instrs.size(), Dec.Instrs.size());
  EXPECT_TRUE(Ref.Instrs == Dec.Instrs);
  EXPECT_TRUE(Ref.Edges == Dec.Edges);
  EXPECT_TRUE(Ref.Depths == Dec.Depths);
}

TEST(ExecEngine, TrapsMatchTreeWalk) {
  ParseResult P = parseModule(
      "func @main(0) {\nentry:\n  r0 = mov 5\n  r1 = div r0, 0\n  ret r1\n}\n");
  ASSERT_TRUE(P.succeeded());
  TreeWalkInterpreter Ref(*P.M);
  Interpreter Dec(*P.M);
  expectResultsEqual(Ref.run(), Dec.run());

  // Hostile addresses: the memory caps trap (or read 0) identically in
  // both engines, and the process survives.
  for (const HostileModule &H : hostileModules()) {
    SCOPED_TRACE(H.Name);
    ParseResult HP = parseModule(H.Text);
    ASSERT_TRUE(HP.succeeded()) << HP.Error;
    TreeWalkInterpreter HRef(*HP.M);
    Interpreter HDec(*HP.M);
    ExecResult RefR = HRef.run(), DecR = HDec.run();
    expectResultsEqual(RefR, DecR);
    if (H.Trap) {
      EXPECT_FALSE(DecR.Ok);
      EXPECT_NE(DecR.Error.find(H.Trap), std::string::npos) << DecR.Error;
    } else {
      ASSERT_TRUE(DecR.Ok) << DecR.Error;
      EXPECT_EQ(DecR.ReturnValue.asInt(), 0);
    }
  }
}

TEST(ExecEngine, BudgetMatchesTreeWalk) {
  ParseResult P = parseModule("func @main(0) {\nentry:\n  br entry\n}\n");
  ASSERT_TRUE(P.succeeded());
  TreeWalkInterpreter Ref(*P.M);
  Ref.setMaxInstructions(1234);
  Interpreter Dec(*P.M);
  Dec.setMaxInstructions(1234);
  ExecResult RefR = Ref.run(), DecR = Dec.run();
  EXPECT_TRUE(RefR.BudgetExhausted);
  expectResultsEqual(RefR, DecR);
}

TEST(ExecEngine, FunctionArgumentsAndNamedEntryPoints) {
  ParseResult P = parseModule("func @addmul(2) {\nentry:\n  r2 = add r0, r1\n"
                              "  r3 = mul r2, r0\n  ret r3\n}\n"
                              "func @main(0) {\nentry:\n  ret 0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Interpreter Dec(*P.M);
  ExecResult R = Dec.run("addmul", {Value::ofInt(3), Value::ofInt(4)});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), 21);
  EXPECT_FALSE(Dec.run("nosuch").Ok);
  EXPECT_FALSE(Dec.run("addmul", {Value::ofInt(1)}).Ok); // arity mismatch
}

TEST(ExecEngine, DecodeCacheHitsAndInvalidation) {
  ParseResult P = parseModule(
      "func @main(0) {\nentry:\n  r0 = add 40, 2\n  ret r0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Module &M = *P.M;

  DecodeCache &Cache = DecodeCache::global();
  Cache.invalidate(M);
  uint64_t Decodes0 = Cache.decodes(), Hits0 = Cache.hits();

  auto A = Cache.get(M);
  auto B = Cache.get(M);
  EXPECT_EQ(A.get(), B.get()); // same decode served twice
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);
  EXPECT_EQ(Cache.hits(), Hits0 + 1);

  // Engines running the same module share the decode...
  Interpreter I1(M), I2(M);
  EXPECT_EQ(&I1.program(), &I2.program());
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);

  // ...until the module is mutated: the structural fingerprint changes and
  // the cache re-decodes instead of serving stale code.
  uint64_t FPBefore = ExecProgram::fingerprintModule(M);
  Module &Mut = M;
  Mut.function(0)->block(0)->instr(0)->setImm(7); // any semantic change
  EXPECT_NE(ExecProgram::fingerprintModule(M), FPBefore);
  auto C = Cache.get(M);
  EXPECT_NE(A.get(), C.get());
  EXPECT_EQ(Cache.decodes(), Decodes0 + 2);
}

TEST(ExecEngine, DecodePreResolvesOperandsAndTargets) {
  ParseResult P = parseModule(R"(
global @g 4 = {10, 20, 30}

func @main(0) {
entry:
  r0 = add @g, 1
  r1 = load r0
  br next
next:
  ret r1
}
)");
  ASSERT_TRUE(P.succeeded());
  ExecProgram Prog(*P.M);
  const DecodedFunction *Main = Prog.findFunction("main");
  ASSERT_NE(Main, nullptr);
  ASSERT_EQ(Main->code().size(), 4u);
  // The global operand became a pooled constant holding its base address.
  EXPECT_TRUE(Main->code()[0].Ops[0] & ConstOperandBit);
  EXPECT_EQ(Prog.constants()[Main->code()[0].Ops[0] & ~ConstOperandBit].asInt(),
            int64_t(Prog.globalBase(0)));
  // The branch target is a flat PC, pointing at the ret.
  EXPECT_EQ(Main->code()[2].Op, Opcode::Br);
  EXPECT_EQ(Main->code()[2].Succ1, 3u);
  EXPECT_EQ(Main->code()[3].Op, Opcode::Ret);
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion
//===----------------------------------------------------------------------===//

/// Runs @main of \p P bare on the dispatch loop (no Interpreter wrapper, so
/// the decode variant under test is exactly the one passed in).
struct EngineRun {
  ExecStop Stop = ExecStop::Trapped;
  ExecContext Ctx;
};

EngineRun runBare(const ExecProgram &P) {
  EngineRun R;
  ExecMemory Mem(P);
  const DecodedFunction *DF = P.findFunction("main");
  EXPECT_NE(DF, nullptr);
  R.Ctx.pushFrame(*DF);
  R.Stop = runEngine(P, Mem, R.Ctx, DefaultExecHooks());
  return R;
}

/// Fused and unfused decodes of the same module must be observationally
/// identical: same return value, same error, same step and cycle
/// accounting. Swept over every workload idiom so every fusion pattern
/// (cmp+condbr, add+load, add+store, sync pairs) gets exercised.
TEST_P(DecodedIdiom, FusedMatchesUnfusedAndFusionFires) {
  auto M = idiomWorkload(GetParam());
  ExecProgram Fused(*M, DecodeOptions{true});
  ExecProgram Unfused(*M, DecodeOptions{false});
  ASSERT_GT(Fused.fusedPairs(), 0u) << "idiom produced nothing fusable";
  EXPECT_EQ(Unfused.fusedPairs(), 0u);
  EXPECT_EQ(Fused.fingerprint(), Unfused.fingerprint());

  EngineRun F = runBare(Fused);
  EngineRun U = runBare(Unfused);
  ASSERT_EQ(F.Stop, ExecStop::Returned) << F.Ctx.Error;
  ASSERT_EQ(U.Stop, ExecStop::Returned) << U.Ctx.Error;
  EXPECT_TRUE(F.Ctx.Returned == U.Ctx.Returned);
  EXPECT_EQ(F.Ctx.Steps, U.Ctx.Steps);
  EXPECT_EQ(F.Ctx.Cycles, U.Ctx.Cycles);
  EXPECT_GT(F.Ctx.StepsFused, 0u);
  EXPECT_EQ(U.Ctx.StepsFused, 0u);
}

/// Fusion must not change what a budget-capped run looks like: sweep the
/// step budget across values that land a cutoff inside fused pairs and
/// compare the exact stop state against the unfused decode.
TEST(ExecEngine, FusedBudgetCutoffsMatchUnfused) {
  auto M = idiomWorkload(KernelIdiom::Branchy);
  ExecProgram Fused(*M, DecodeOptions{true});
  ExecProgram Unfused(*M, DecodeOptions{false});
  ASSERT_GT(Fused.fusedPairs(), 0u);
  for (uint64_t Budget : {1u, 2u, 3u, 7u, 50u, 51u, 52u, 53u, 1000u, 1001u}) {
    ExecMemory FM(Fused), UM(Unfused);
    ExecContext FC, UC;
    FC.MaxSteps = UC.MaxSteps = Budget;
    FC.pushFrame(*Fused.findFunction("main"));
    UC.pushFrame(*Unfused.findFunction("main"));
    ExecStop FS = runEngine(Fused, FM, FC, DefaultExecHooks());
    ExecStop US = runEngine(Unfused, UM, UC, DefaultExecHooks());
    EXPECT_EQ(FS, US) << "budget " << Budget;
    EXPECT_EQ(FC.Steps, UC.Steps) << "budget " << Budget;
    EXPECT_EQ(FC.Cycles, UC.Cycles) << "budget " << Budget;
    EXPECT_EQ(FC.Error, UC.Error) << "budget " << Budget;
    EXPECT_EQ(FC.BudgetExhausted, UC.BudgetExhausted) << "budget " << Budget;
  }
}

/// Even when the *fused* decode runs under instruction hooks (drivers
/// normally switch to the unfused one), every original instruction must
/// still be reported exactly once, in tree-walk order, with its own cost.
TEST(ExecEngine, FusedProgramObserverStreamMatchesTreeWalk) {
  struct Recorder : ExecObserver {
    std::vector<std::pair<const Instruction *, unsigned>> Instrs;
    std::vector<std::pair<const BasicBlock *, const BasicBlock *>> Edges;
    void onInstruction(const Instruction *I, unsigned Cycles,
                       ExecState &) override {
      Instrs.push_back({I, Cycles});
    }
    void onEdge(const BasicBlock *From, const BasicBlock *To,
                ExecState &) override {
      Edges.push_back({From, To});
    }
  };
  /// Minimal ExecState for driving runEngine with hooks but no Interpreter.
  struct BareState : ExecState {
    ExecContext &Ctx;
    const ExecProgram &P;
    BareState(ExecContext &Ctx, const ExecProgram &P) : Ctx(Ctx), P(P) {}
    unsigned callDepth() const override {
      return unsigned(Ctx.Frames.size());
    }
    const Function *currentFunction() const override {
      return Ctx.Frames.back().F->Src;
    }
    Value operandValue(const Operand &O) const override {
      switch (O.kind()) {
      case Operand::Kind::Reg:
        return Ctx.frameRegs(Ctx.Frames.back())[O.regId()];
      case Operand::Kind::ImmInt:
        return Value::ofInt(O.intValue());
      case Operand::Kind::ImmFloat:
        return Value::ofFloat(O.floatValue());
      case Operand::Kind::Global:
        return Value::ofInt(int64_t(P.globalBase(O.globalIndex())));
      }
      return Value();
    }
    uint64_t globalBase(unsigned Idx) const override {
      return P.globalBase(Idx);
    }
  };

  auto M = idiomWorkload(KernelIdiom::Branchy);
  Recorder Ref;
  TreeWalkInterpreter RefI(*M);
  RefI.setObserver(&Ref);
  ASSERT_TRUE(RefI.run().Ok);

  ExecProgram Fused(*M, DecodeOptions{true});
  ASSERT_GT(Fused.fusedPairs(), 0u);
  Recorder Dec;
  ExecMemory Mem(Fused);
  ExecContext Ctx;
  Ctx.pushFrame(*Fused.findFunction("main"));
  BareState State(Ctx, Fused);
  ObserverExecHooks Hooks(Dec, State);
  ASSERT_EQ(runEngine(Fused, Mem, Ctx, Hooks), ExecStop::Returned)
      << Ctx.Error;

  ASSERT_EQ(Ref.Instrs.size(), Dec.Instrs.size());
  EXPECT_TRUE(Ref.Instrs == Dec.Instrs);
  EXPECT_TRUE(Ref.Edges == Dec.Edges);
  EXPECT_GT(Ctx.StepsFused, 0u); // fused handlers actually ran
}

//===----------------------------------------------------------------------===//
// Register windows
//===----------------------------------------------------------------------===//

/// A deep recursive chain: thousands of live frames means thousands of
/// live register windows stacked in one contiguous RegStack. The sum must
/// match the tree-walk reference exactly (and arithmetic: n(n+1)/2).
TEST(ExecEngine, RegisterWindowsSurviveDeepCallChains) {
  ParseResult P = parseModule(R"(
func @sum(1) {
entry:
  r1 = cmple r0, 0
  condbr r1, base, rec
base:
  ret 0
rec:
  r2 = sub r0, 1
  r3 = call @sum(r2)
  r4 = add r3, r0
  ret r4
}
func @main(0) {
entry:
  r0 = call @sum(3000)
  ret r0
}
)");
  ASSERT_TRUE(P.succeeded()) << P.Error;
  TreeWalkInterpreter Ref(*P.M);
  Interpreter Dec(*P.M);
  ExecResult RefR = Ref.run(), DecR = Dec.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;
  EXPECT_EQ(RefR.ReturnValue.asInt(), 3000 * 3001 / 2);
  expectResultsEqual(RefR, DecR);
}

/// A trap deep inside a call chain: the error, the step/cycle accounting
/// at the trap point, and the interpreter's ability to run again cleanly
/// afterwards must all match the reference.
TEST(ExecEngine, TrapMidCallChainUnwindsLikeTreeWalk) {
  ParseResult P = parseModule(R"(
func @down(1) {
entry:
  r1 = cmple r0, 0
  condbr r1, boom, rec
boom:
  r2 = div 1, 0
  ret r2
rec:
  r3 = sub r0, 1
  r4 = call @down(r3)
  ret r4
}
func @main(0) {
entry:
  r0 = call @down(40)
  ret r0
}
)");
  ASSERT_TRUE(P.succeeded()) << P.Error;
  TreeWalkInterpreter Ref(*P.M);
  Interpreter Dec(*P.M);
  ExecResult RefR = Ref.run(), DecR = Dec.run();
  EXPECT_FALSE(RefR.Ok);
  expectResultsEqual(RefR, DecR);
  // A fresh run on the same engine starts from a clean window stack.
  expectResultsEqual(Ref.run(), Dec.run());
}

//===----------------------------------------------------------------------===//
// Content-addressed decode
//===----------------------------------------------------------------------===//

/// Two structurally identical modules (separate parses, different Module
/// objects) must share one decoded body: the second get() is a body hit,
/// not a decode, and both instances point at the same ExecCodeBody.
TEST(ExecEngine, ContentAddressedDecodeSharesBodies) {
  const char *Text = R"(
global @caddr_g 3 = {5, 6, 7}

func @main(0) {
entry:
  r0 = add @caddr_g, 2
  r1 = load r0
  ret r1
}
)";
  ParseResult P1 = parseModule(Text), P2 = parseModule(Text);
  ASSERT_TRUE(P1.succeeded() && P2.succeeded());
  ASSERT_NE(P1.M.get(), P2.M.get());
  EXPECT_EQ(ExecProgram::fingerprintModule(*P1.M),
            ExecProgram::fingerprintModule(*P2.M));

  DecodeCache &Cache = DecodeCache::global();
  Cache.invalidate(*P1.M);
  Cache.invalidate(*P2.M);
  uint64_t Decodes0 = Cache.decodes(), BodyHits0 = Cache.bodyHits();

  auto A = Cache.get(*P1.M);
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);
  auto B = Cache.get(*P2.M);
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1) << "second module re-decoded";
  EXPECT_EQ(Cache.bodyHits(), BodyHits0 + 1);

  EXPECT_NE(A.get(), B.get()); // distinct instances (per-Module tables)...
  EXPECT_EQ(A->sharedBody().get(), B->sharedBody().get()); // ...one body
  EXPECT_EQ(A->fusedPairs(), B->fusedPairs());

  // Both instances execute, and agree.
  Interpreter I1(*P1.M), I2(*P2.M);
  ExecResult R1 = I1.run(), R2 = I2.run();
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_TRUE(R1.ReturnValue == R2.ReturnValue);
  EXPECT_EQ(R1.ReturnValue.asInt(), 7);
}

/// All three fuzz-oracle legs (sequential, transform-then-sequential,
/// threaded 2/4/6) run on the decoded engine: a campaign must stay
/// divergence-free. Smaller under TSan, where each case costs ~10x.
#if defined(__SANITIZE_THREAD__)
constexpr unsigned SmokeRuns = 60;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr unsigned SmokeRuns = 60;
#else
constexpr unsigned SmokeRuns = 500;
#endif
#else
constexpr unsigned SmokeRuns = 500;
#endif

TEST(ExecEngine, FuzzSmokeAllLegsDivergenceFree) {
  FuzzOptions Opt;
  Opt.Seed = 0xEC0DE;
  Opt.Runs = SmokeRuns;
  Opt.Shrink = false;
  FuzzSummary S = runFuzzCampaign(Opt);
  EXPECT_EQ(S.Divergent, 0u);
  EXPECT_EQ(S.Clean + S.Inconclusive, S.Runs);
}

} // namespace
