//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end benchmark of the helix library. One binary runs one of
/// three workloads against the library's public functions, checks every
/// output, and prints its metrics:
///
///   suite  the 13 SPEC-analog programs, each compiled cold through the
///          standard pipeline, then run on the sequential Interpreter and,
///          transformed, on 4 real worker threads (runThreaded);
///   fuzz   a differential fuzz campaign (runFuzzCampaign), one case per
///          call so every case is timed;
///   serve  an in-process ServeServer under a closed loop of ServeClient
///          connections, after a warm-up of the suite's modules.
///
/// Usage:
///   perfbench --workload suite|fuzz|serve --seed N --seconds S
///             --trace 0|1 [--units N]
///
/// With --trace 0 the whole measured phase runs untraced and the last
/// stdout line carries the end-to-end metrics. With --trace 1 the phase is
/// split: an untraced half, then a traced half that times the calls into
/// each layer from here (nothing inside the library changes); the last
/// line carries the per-layer metrics, including the tracing overhead
/// between the two halves. --units N replaces the time budget by N units
/// of work per half (suite passes, fuzz cases, serve requests), so two
/// runs do identical work; the determinism self-test uses it.
///
/// The last stdout line is {"correct", "attempted", "failed", "metrics"};
/// the line before it ("run") records nproc, every thread and connection
/// count, the seed, a digest of the generated inputs and the deterministic
/// results. Exit status: 0 when every check passed, 1 when any failed,
/// 2 on a usage or environment error (no result line then).
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/LoopInfo.h"
#include "check/DepAudit.h"
#include "check/SyncChecker.h"
#include "exec/ExecLimits.h"
#include "exec/ExecProgram.h"
#include "fuzz/Fuzzer.h"
#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "pipeline/PipelineBuilder.h"
#include "runtime/ThreadedRuntime.h"
#include "serve/ServeClient.h"
#include "serve/ServeServer.h"
#include "sim/ParallelSim.h"
#include "sim/TraceCollector.h"
#include "support/Json.h"
#include "support/Random.h"
#include "workloads/WorkloadBuilder.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace helix;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

template <typename Fn> double timeMs(Fn &&F) {
  Clock::time_point T0 = Clock::now();
  F();
  return msSince(T0);
}

/// Nearest-rank percentile (\p Q in (0, 1]); 0 for no samples.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// Geometric mean, summed in sorted order so that the same values give
/// the same bits whatever order they were collected in.
double geomean(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/// FNV-1a, folding the identity of every generated input into one digest.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(const std::string &S) {
    for (unsigned char C : S)
      H = (H ^ C) * 0x100000001b3ull;
  }
  void add(uint64_t V) { add(std::to_string(V)); }
};

//===----------------------------------------------------------------------===//
// Options, phases, results
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Units = 0; ///< fixed units per half; 0 = time-bounded
};

/// The thread and connection counts of every workload. 4 workers match
/// the 4-core configuration the simulator predicts for, so simulated and
/// real speedups compare; the rest scale with the machine.
constexpr unsigned SuiteCores = 4;
constexpr unsigned FuzzThreadCounts[] = {2, 4};
constexpr unsigned ServeCores[] = {2, 4};
/// Share of serve requests (per mille) that submit a first-seen module.
constexpr uint64_t ServeColdPerMille = 50;

/// When a measured half ends: after Units units when fixed, else once
/// its time budget is spent (always at least one unit).
class Phase {
public:
  Phase(double Seconds, unsigned Units)
      : Deadline(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(Seconds))),
        Units(Units) {}
  bool admits(unsigned Done) const {
    return Units ? Done < Units : (Done == 0 || Clock::now() < Deadline);
  }

private:
  Clock::time_point Deadline;
  unsigned Units;
};

/// Sums of the traced half; reported per unit of work unless a value is
/// set directly (ratios, geomeans, deterministic results).
class Layers {
public:
  void add(const std::string &Name, double V) { Sums[Name] += V; }
  void set(const std::string &Name, double V) { Direct[Name] = V; }
  void mergeSums(const Layers &O) {
    for (const auto &[N, V] : O.Sums)
      Sums[N] += V;
  }
  double sum(const std::string &Name) const {
    auto It = Sums.find(Name);
    return It == Sums.end() ? 0.0 : It->second;
  }
  double value(const std::string &Name, uint64_t Units) const {
    auto It = Direct.find(Name);
    if (It != Direct.end())
      return It->second;
    return Units ? sum(Name) / double(Units) : 0.0;
  }
  void addPassTimings(const std::vector<LoopPassTiming> &T) {
    for (const LoopPassTiming &P : T) {
      add("helix.pass." + P.Pass + ".ms", P.Millis);
      add("helix.pass.total.ms", P.Millis);
    }
  }
  void addAnalysisBuilds(const std::vector<AnalysisCounterReport> &C) {
    for (const AnalysisCounterReport &A : C)
      add("analysis." + A.Analysis + ".built", double(A.Built));
  }

private:
  std::map<std::string, double> Sums, Direct;
};

/// Everything one run measured.
struct Run {
  std::atomic<uint64_t> Attempted{0}, Failed{0};
  std::vector<double> SetupS;
  std::vector<double> UnitMs; ///< latency samples of the untraced half
  std::vector<double> ColdMs; ///< of those, units on first-seen input
  uint64_t Units = 0;         ///< units the untraced half completed
  double ElapsedS = 0;        ///< wall of the untraced half
  uint64_t TracedUnits = 0;
  double TracedElapsedS = 0;
  Layers L;
  Digest Inputs;
  /// Deterministic results (simulated speedup geomean, model error).
  std::map<std::string, double> Deterministic;
  std::map<std::string, std::string> Config;

  /// Counts one failed check; thread-safe.
  void failure(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    std::lock_guard<std::mutex> Lock(FailMutex);
    if (++Failed > 20)
      return;
    va_list Args;
    va_start(Args, Fmt);
    std::fprintf(stderr, "perfbench: check failed: ");
    std::vfprintf(stderr, Fmt, Args);
    std::fprintf(stderr, "\n");
    va_end(Args);
  }

private:
  std::mutex FailMutex;
};

/// Adds the simulated-speedup results of one suite report under \p Prog.
void addSimResult(Run &R, const std::string &Prog, const PipelineReport &Rep,
                  std::vector<double> &Speedups, double &MaxErr) {
  R.L.set("sim.speedup." + Prog, Rep.Speedup);
  Speedups.push_back(Rep.Speedup);
  MaxErr = std::max(MaxErr, 100.0 * std::fabs(Rep.ModelSpeedup - Rep.Speedup) /
                                Rep.Speedup);
}

void setSimSummary(Run &R, const std::vector<double> &Speedups,
                   double MaxErr) {
  R.Deterministic["sim_speedup_geomean"] = geomean(Speedups);
  R.Deterministic["model_error_max_pct"] = MaxErr;
  R.L.set("sim.speedup_geomean", geomean(Speedups));
  R.L.set("sim.model_error_max_pct", MaxErr);
}

/// Runs the untraced half and, with tracing, the traced half, calling
/// \p Unit(Traced, K) for unit K of a half until the half is over. Units
/// record their own samples and counts.
template <typename UnitFn>
void runHalves(Run &R, const Options &O, UnitFn Unit) {
  for (bool Traced : {false, true}) {
    if (Traced && !O.Trace)
      break;
    Phase P(O.Trace ? O.Seconds / 2 : O.Seconds, O.Units);
    Clock::time_point T0 = Clock::now();
    for (unsigned K = 0; P.admits(K); ++K)
      Unit(Traced, K);
    (Traced ? R.TracedElapsedS : R.ElapsedS) = msSince(T0) / 1000.0;
  }
}

//===----------------------------------------------------------------------===//
// Metric lists
//===----------------------------------------------------------------------===//

struct MetricDef {
  std::string Name;
  std::string Unit;
};

const char *const PassNames[] = {"normalize", "dependence",  "inline",
                                 "characterize", "wait-signal", "schedule",
                                 "signal-opt", "lower", "balance", "finalize"};

/// Every per-layer metric, in output order. A workload that does not
/// exercise a layer reports 0 for it.
std::vector<MetricDef> layerMetrics() {
  std::vector<MetricDef> M;
  auto Add = [&](std::string N, const char *U) { M.push_back({N, U}); };
  for (const std::string &S : PipelineBuilder::standardStageNames())
    Add("pipeline." + S + ".ms", "ms");
  for (const char *S : {"profile", "model-profile", "validate"})
    Add(std::string("pipeline.") + S + ".instrs", "count");
  for (const char *S : {"hits", "misses", "stores"})
    Add(std::string("pipeline.cache.") + S, "count");
  Add("serve.coalesced", "count");
  Add("serve.rejected", "count");
  Add("serve.overhead.ms", "ms");
  for (const char *P : PassNames)
    Add(std::string("helix.pass.") + P + ".ms", "ms");
  Add("helix.pass.total.ms", "ms");
  for (unsigned K = 0; K <= unsigned(AnalysisKind::MemEffects); ++K)
    Add(std::string("analysis.") + analysisKindName(AnalysisKind(K)) +
            ".built",
        "count");
  Add("exec.seq.ms", "ms");
  Add("exec.seq.minstr_per_s", "Minstr/s");
  Add("exec.decode.decodes", "count");
  Add("exec.decode.hits", "count");
  Add("runtime.t1.ms", "ms");
  Add("runtime.t4.ms", "ms");
  Add("runtime.invocations", "count");
  Add("runtime.iterations", "count");
  Add("runtime.signals", "count");
  Add("runtime.ms_per_invocation", "ms");
  Add("native.speedup_geomean", "x");
  Add("sim.speedup_geomean", "x");
  Add("sim.model_error_max_pct", "%");
  for (const WorkloadSpec &S : spec2000Suite())
    Add("sim.speedup." + S.Name, "x");
  for (const WorkloadSpec &S : spec2000Suite())
    Add("native.speedup." + S.Name, "x");
  Add("check.sync.loops", "count");
  Add("check.dep.witnessed", "count");
  Add("fuzz.generate.ms", "ms");
  Add("fuzz.oracle.ms", "ms");
  for (const char *Leg :
       {"seq", "transform", "static", "observed", "t2", "t4", "sim"})
    Add(std::string("fuzz.leg.") + Leg + ".ms", "ms");
  Add("ir.print.ms", "ms");
  Add("ir.parse.ms", "ms");
  Add("trace.overhead_ms", "ms");
  Add("trace.overhead_pct", "%");
  return M;
}

//===----------------------------------------------------------------------===//
// Shared traced-unit helpers
//===----------------------------------------------------------------------===//

/// Times printing \p M and parsing the text back (checked).
void traceIrRoundTrip(Run &R, const Module &M, Layers &L) {
  std::string Text;
  L.add("ir.print.ms", timeMs([&] { Text = M.toString(); }));
  ParseResult PR;
  L.add("ir.parse.ms", timeMs([&] { PR = parseModule(Text); }));
  if (!PR.succeeded())
    R.failure("printed module does not parse back: %s", PR.Error.c_str());
}

void addStageRun(Layers &L, const std::string &Stage, double Ms,
                 uint64_t Instrs) {
  L.add("pipeline." + Stage + ".ms", Ms);
  L.add("pipeline." + Stage + ".instrs", double(Instrs));
}

void addRuntimeStats(Layers &L, const RuntimeStats &S) {
  L.add("runtime.invocations", double(S.ParallelInvocations));
  L.add("runtime.iterations", double(S.ParallelIterations));
  L.add("runtime.signals", double(S.SignalsSent));
}

//===----------------------------------------------------------------------===//
// suite
//===----------------------------------------------------------------------===//

struct SuiteProgram {
  std::string Name;
  std::unique_ptr<Module> M;
};

void runSuite(Run &R, const Options &O, unsigned NProc) {
  PipelineConfig Cfg;
  Cfg.NumCores = SuiteCores;
  Cfg.ModelProfileThreads = NProc;
  R.Config["pipeline_num_cores"] = std::to_string(SuiteCores);
  R.Config["model_profile_threads"] = std::to_string(NProc);
  R.Config["runtime_workers"] = std::to_string(SuiteCores);
  R.Config["runtime_workers_traced"] = "1,4";

  std::vector<SuiteProgram> Progs;
  Pipeline Pipe;
  std::vector<double> SimSpeedups;
  double MaxErr = 0;
  std::map<std::string, double> SeqMs, NativeMs;

  // One unit: a cold compile, the original program on the Interpreter and
  // the transformed one on 4 workers, checked. With tracing, the calls
  // into each layer are recorded too. \returns the unit's wall time, or a
  // negative value when a check failed.
  auto Unit = [&](SuiteProgram &P, bool Traced, PipelineReport &Rep) {
    ++R.Attempted;
    Clock::time_point T0 = Clock::now();
    PipelineContext Ctx(*P.M, Cfg);
    Rep = Pipe.run(Ctx);
    if (!Rep.Ok || !Rep.OutputsMatch) {
      R.failure("suite %s: pipeline ok=%d outputsMatch=%d: %s",
                P.Name.c_str(), Rep.Ok, Rep.OutputsMatch, Rep.Error.c_str());
      return -1.0;
    }
    Interpreter Seq(*P.M);
    ExecResult SeqRes;
    double SeqRunMs = timeMs([&] { SeqRes = Seq.run(); });
    std::vector<const ParallelLoopInfo *> PLIs;
    for (const auto &NodeAndLoop : Ctx.TransformedLoops)
      PLIs.push_back(&NodeAndLoop.second);
    RuntimeStats RS;
    ExecResult Par;
    double ParMs = timeMs([&] {
      Par = runThreaded(*Ctx.Transformed, PLIs, SuiteCores, &RS);
    });
    double UnitMs = msSince(T0);
    if (!SeqRes.Ok || !Par.Ok || !(Par.ReturnValue == SeqRes.ReturnValue)) {
      R.failure("suite %s: threaded checksum %lld (ok=%d) != sequential "
                "%lld (ok=%d)",
                P.Name.c_str(), (long long)Par.ReturnValue.asInt(), Par.Ok,
                (long long)SeqRes.ReturnValue.asInt(), SeqRes.Ok);
      return -1.0;
    }
    if (!Traced)
      return UnitMs;

    Layers &L = R.L;
    for (const PipelineContext::StageRun &S : Ctx.history())
      addStageRun(L, S.Name, S.WallMillis, S.InterpretedInstructions);
    L.addPassTimings(Rep.TransformPassTimings);
    L.addAnalysisBuilds(Rep.TransformAnalysisCounters);
    L.addAnalysisBuilds(Rep.ModelProfileAnalysisCounters);
    L.add("check.sync.loops", Rep.SyncCheck.LoopsChecked);
    L.add("check.dep.witnessed", Rep.DepAudit.Witnessed);
    L.add("exec.seq.ms", SeqRunMs);
    L.add("exec.seq.instrs", double(SeqRes.Instructions));
    L.add("runtime.t4.ms", ParMs);
    addRuntimeStats(L, RS);
    SeqMs[P.Name] += SeqRunMs;
    NativeMs[P.Name] += ParMs;
    ExecResult One;
    L.add("runtime.t1.ms",
          timeMs([&] { One = runThreaded(*Ctx.Transformed, PLIs, 1); }));
    if (!One.Ok || !(One.ReturnValue == SeqRes.ReturnValue))
      R.failure("suite %s: 1-worker checksum differs", P.Name.c_str());
    traceIrRoundTrip(R, *P.M, L);
    return UnitMs;
  };

  // Set-up: build the 13 input modules and the pipeline, then run one
  // warm-up unit on the first program so thread pools, the allocator and
  // the decode cache are warm before timing. Repeated; the median is
  // reported.
  for (int Rep = 0; Rep != 3; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Progs.clear();
    for (const WorkloadSpec &S : spec2000Suite())
      Progs.push_back({S.Name, buildWorkload(S)});
    Pipe = PipelineBuilder::standard();
    PipelineReport Warm;
    Unit(Progs.front(), false, Warm);
    R.SetupS.push_back(msSince(T0) / 1000.0);
  }

  // Seeded visiting order; whole passes only, so every half sees each
  // program equally often.
  std::vector<size_t> Order(Progs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  Rng Shuffle(O.Seed);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Shuffle.nextBelow(I)]);
  for (size_t I : Order)
    R.Inputs.add(Progs[I].Name);

  DecodeCache::Counters Dec0;
  auto Pass = [&](bool Traced, unsigned PassNo) {
    if (Traced && PassNo == 0)
      Dec0 = DecodeCache::global().counters();
    for (size_t I : Order) {
      PipelineReport Rep;
      double Ms = Unit(Progs[I], Traced, Rep);
      if (Ms < 0)
        continue;
      if (PassNo == 0 && !Traced)
        addSimResult(R, Progs[I].Name, Rep, SimSpeedups, MaxErr);
      if (Traced) {
        ++R.TracedUnits;
        continue;
      }
      R.UnitMs.push_back(Ms);
      R.ColdMs.push_back(Ms);
      ++R.Units;
    }
  };
  runHalves(R, O, Pass);
  setSimSummary(R, SimSpeedups, MaxErr);
  if (!O.Trace)
    return;

  DecodeCache::Counters Dec1 = DecodeCache::global().counters();
  R.L.add("exec.decode.decodes", double(Dec1.Decodes - Dec0.Decodes));
  R.L.add("exec.decode.hits", double(Dec1.Hits - Dec0.Hits));
  std::vector<double> Native;
  for (const auto &[Name, Ms] : SeqMs) {
    double Ratio = Ms / NativeMs[Name];
    R.L.set("native.speedup." + Name, Ratio);
    Native.push_back(Ratio);
  }
  R.L.set("native.speedup_geomean", geomean(Native));
}

//===----------------------------------------------------------------------===//
// fuzz
//===----------------------------------------------------------------------===//

/// True when every case of the campaign came out clean.
bool fuzzClean(const FuzzSummary &S) {
  return S.Clean == S.Runs && S.Divergent == 0 && S.Inconclusive == 0 &&
         S.StaticAlarms == 0 && S.DepUnsoundCases == 0;
}

bool sameResult(const ExecResult &A, const ExecResult &B) {
  return A.Ok == B.Ok && (!A.Ok || A.ReturnValue == B.ReturnValue);
}

/// The traced fuzz unit: generate, run the oracle, then replay its legs
/// through the same public calls runDifferential makes, timing each. The
/// replay must reproduce the oracle's checksums and counts.
void tracedFuzzCase(Run &R, const FuzzOptions &F, uint64_t CaseSeed,
                    std::vector<double> &SimSpeedups) {
  Layers &L = R.L;
  const DiffConfig &D = F.Diff;
  std::unique_ptr<Module> M;
  L.add("fuzz.generate.ms",
        timeMs([&] { M = generateProgram(CaseSeed, F.Gen); }));
  DiffOutcome Out;
  L.add("fuzz.oracle.ms", timeMs([&] { Out = runDifferential(*M, D); }));
  if (Out.Divergence || Out.Inconclusive || Out.StaticFindings) {
    R.failure("fuzz case 0x%016llx: %s", (unsigned long long)CaseSeed,
              Out.Detail.empty() ? "static finding" : Out.Detail.c_str());
    return;
  }
  L.addPassTimings(Out.PassTimings);
  L.addAnalysisBuilds(Out.AnalysisCounters);
  L.add("check.sync.loops", Out.StaticLoopsChecked);
  L.add("check.dep.witnessed", Out.DepWitnessed);
  if (Out.SimParCycles)
    SimSpeedups.push_back(double(Out.SeqCycles) / double(Out.SimParCycles));

  std::unique_ptr<Module> SeqM = cloneModule(*M);
  Interpreter SeqI(*SeqM);
  SeqI.setMaxInstructions(D.MaxInstructions);
  ExecResult Seq;
  double SeqRunMs = timeMs([&] { Seq = SeqI.run(); });
  L.add("fuzz.leg.seq.ms", SeqRunMs);
  L.add("exec.seq.ms", SeqRunMs);
  L.add("exec.seq.instrs", double(Seq.Instructions));
  bool Ok = Seq.Ok == Out.SeqOk &&
            (!Seq.Ok || Seq.ReturnValue.asInt() == Out.SeqChecksum);

  std::unique_ptr<Module> TM = cloneModule(*M);
  std::vector<ParallelLoopInfo> Loops;
  L.add("fuzz.leg.transform.ms", timeMs([&] {
          AnalysisManager AM(*TM);
          std::vector<std::pair<Function *, BasicBlock *>> Targets;
          for (Function *Fn : *TM) {
            if (!D.TransformMainLoops && Fn->name() == "main")
              continue;
            for (Loop *Lp : AM.get<LoopInfo>(Fn).topLevelLoops())
              Targets.push_back({Fn, Lp->header()});
          }
          for (auto &[Fn, H] : Targets)
            if (std::optional<ParallelLoopInfo> PLI =
                    parallelizeLoop(AM, Fn, H, D.Helix))
              Loops.push_back(std::move(*PLI));
        }));
  std::vector<const ParallelLoopInfo *> PLIs;
  for (const ParallelLoopInfo &PLI : Loops)
    PLIs.push_back(&PLI);
  Ok &= Loops.size() == Out.LoopsTransformed;

  L.add("fuzz.leg.static.ms", timeMs([&] {
          AnalysisManager CheckAM(*TM);
          SyncCheckResult SC = checkModuleSync(CheckAM, PLIs);
          Ok &= SC.Diags.empty() && SC.LoopsChecked == Out.StaticLoopsChecked;
        }));

  uint64_t LegBudget = ExecLimits::hangBudget(D.MaxInstructions);
  TraceCollector TC(PLIs);
  DepWitnessObserver DW(PLIs);
  ExecResult TRun;
  L.add("fuzz.leg.observed.ms", timeMs([&] {
          FanoutObserver Both(TC, DW);
          Interpreter TI(*TM);
          TI.setMaxInstructions(LegBudget);
          TI.setObserver(&Both);
          TRun = TI.run();
          DepAuditResult AR = auditDependences(DW);
          Ok &= AR.UncoveredDeps == 0 && AR.WitnessedDeps == Out.DepWitnessed;
        }));
  Ok &= sameResult(TRun, Seq);

  for (unsigned Threads : FuzzThreadCounts) {
    RuntimeStats RS;
    ExecResult Par;
    double Ms = timeMs(
        [&] { Par = runThreaded(*TM, PLIs, Threads, &RS, LegBudget); });
    L.add("fuzz.leg.t" + std::to_string(Threads) + ".ms", Ms);
    if (Threads == 4) {
      L.add("runtime.t4.ms", Ms);
      addRuntimeStats(L, RS);
    }
    Ok &= sameResult(Par, Seq);
  }

  if (TRun.Ok && !Loops.empty()) {
    L.add("fuzz.leg.sim.ms", timeMs([&] {
            SimConfig SC;
            SC.NumCores = D.SimCores;
            SC.Machine = D.Helix.Machine;
            Ok &= simulateProgram(TC, SC) == Out.SimParCycles;
          }));
  }
  traceIrRoundTrip(R, *M, L);
  if (!Ok)
    R.failure("fuzz case 0x%016llx: replayed legs disagree with "
              "runDifferential",
              (unsigned long long)CaseSeed);
}

void runFuzz(Run &R, const Options &O) {
  FuzzOptions F;
  F.Jobs = 1;
  F.Shrink = false;
  F.Diff.ThreadCounts.assign(std::begin(FuzzThreadCounts),
                             std::end(FuzzThreadCounts));
  F.Diff.AuditDeps = true;
  R.Config["fuzz_jobs"] = "1";
  R.Config["fuzz_thread_counts"] = "2,4";
  R.Config["fuzz_shrink"] = "0";
  R.Config["fuzz_dep_audit"] = "1";

  // Set-up: the process's first fuzz work — a fixed three-case warm-up
  // campaign (its seed does not depend on --seed), repeated; the median
  // is reported. It fills the allocator and decode cache before timing.
  for (int Rep = 0; Rep != 3; ++Rep) {
    FuzzOptions W = F;
    W.Seed = 0x5eed;
    W.Runs = 3;
    FuzzSummary S;
    R.SetupS.push_back(timeMs([&] { S = runFuzzCampaign(W); }) / 1000.0);
    R.Attempted += W.Runs;
    if (!fuzzClean(S))
      R.failure("fuzz warm-up campaign not clean");
  }

  std::vector<double> SimSpeedups;
  DecodeCache::Counters Dec0;
  unsigned Index = 0; // the traced half continues the case sequence
  auto Case = [&](bool Traced, unsigned K) {
    if (Traced && K == 0)
      Dec0 = DecodeCache::global().counters();
    uint64_t CaseSeed = fuzzCaseSeed(O.Seed, Index++);
    R.Inputs.add(CaseSeed);
    ++R.Attempted;
    if (Traced) {
      ++R.TracedUnits;
      tracedFuzzCase(R, F, CaseSeed, SimSpeedups);
      return;
    }
    F.CaseSeeds = {CaseSeed};
    FuzzSummary S;
    double Ms = timeMs([&] { S = runFuzzCampaign(F); });
    if (!fuzzClean(S)) {
      R.failure("fuzz case %u (seed 0x%016llx): divergent=%u "
                "inconclusive=%u static-alarms=%u dep-unsound=%u: %s",
                Index - 1, (unsigned long long)CaseSeed, S.Divergent,
                S.Inconclusive, S.StaticAlarms, S.DepUnsoundCases,
                S.Failures.empty() ? "" : S.Failures.front().Detail.c_str());
      return;
    }
    R.UnitMs.push_back(Ms);
    R.ColdMs.push_back(Ms);
    ++R.Units;
  };
  runHalves(R, O, Case);
  if (!O.Trace)
    return;
  DecodeCache::Counters Dec1 = DecodeCache::global().counters();
  R.L.add("exec.decode.decodes", double(Dec1.Decodes - Dec0.Decodes));
  R.L.add("exec.decode.hits", double(Dec1.Hits - Dec0.Hits));
  R.L.set("sim.speedup_geomean", geomean(SimSpeedups));
  R.Deterministic["sim_speedup_geomean"] = geomean(SimSpeedups);
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

/// Runs \p Body(ClientIndex, Client) on \p N connected client threads.
template <typename BodyFn>
void withClients(Run &R, const std::string &Socket, unsigned N, BodyFn Body) {
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != N; ++C)
    Threads.emplace_back([&, C] {
      ServeClient Client;
      std::string Err;
      if (!Client.connect(Socket, &Err)) {
        R.failure("serve client %u: connect: %s", C, Err.c_str());
        return;
      }
      Body(C, Client);
    });
  for (std::thread &T : Threads)
    T.join();
}

/// One planned serve request: a warmed (module, cores) key, or a
/// first-seen module — a suite program re-seeded through
/// WorkloadSpec::Seed, so it fingerprints differently at a similar cost.
struct ServeRequestPlan {
  bool Cold = false;
  unsigned Key = 0; ///< warm: key index; cold: suite program index
  uint64_t ColdSeed = 0;
  uint64_t ColdOrdinal = 0; ///< how many cold requests precede this one
};

class ServePlan {
public:
  ServePlan(uint64_t Seed, unsigned NumKeys) : Seed(Seed), NumKeys(NumKeys) {}

  /// Request \p K of the run; a pure function of (seed, K).
  ServeRequestPlan at(uint64_t K) {
    std::lock_guard<std::mutex> Lock(M);
    while (Plans.size() <= K) {
      uint64_t I = Plans.size();
      uint64_t U = Rng(Seed ^ (0x9E3779B97F4A7C15ull * (I + 1))).next();
      ServeRequestPlan P;
      P.Cold = U % 1000 < ServeColdPerMille;
      if (P.Cold) {
        // Cold requests cycle through the suite programs so every run's
        // cold sample mixes them evenly.
        P.Key = unsigned((Seed + ColdCount) % spec2000Suite().size());
        P.ColdSeed = (U >> 10) | 1;
        P.ColdOrdinal = ColdCount++;
      } else {
        P.Key = unsigned((U >> 10) % NumKeys);
      }
      Plans.push_back(P);
    }
    return Plans[K];
  }

  /// Folds requests [0, N) into \p D in plan order.
  void digest(Digest &D, uint64_t N) {
    for (uint64_t K = 0; K != N; ++K) {
      ServeRequestPlan P = at(K);
      D.add(P.Cold ? P.ColdSeed : P.Key);
    }
  }

private:
  std::mutex M;
  uint64_t Seed;
  unsigned NumKeys;
  uint64_t ColdCount = 0;
  std::vector<ServeRequestPlan> Plans;
};

void runServe(Run &R, const Options &O, unsigned NProc) {
  const std::vector<WorkloadSpec> &Suite = spec2000Suite();
  unsigned Clients = NProc;
  R.Config["serve_workers"] = std::to_string(NProc);
  R.Config["serve_connections"] = std::to_string(Clients);
  R.Config["serve_num_cores"] = "2,4";
  R.Config["serve_model_profile_threads"] = "1";
  R.Config["serve_cold_per_mille"] = std::to_string(ServeColdPerMille);

  // Warm keys: every suite program at every core count.
  struct Key {
    unsigned Prog;
    unsigned Cores;
  };
  std::vector<Key> Keys;
  for (unsigned Cores : ServeCores)
    for (unsigned P = 0; P != Suite.size(); ++P)
      Keys.push_back({P, Cores});
  auto overridesFor = [](unsigned Cores) {
    ConfigOverrides Ov;
    Ov.NumCores = Cores;
    Ov.ModelProfileThreads = 1;
    return Ov;
  };

  std::string Socket = "perfbench-" + std::to_string(getpid()) + ".sock";
  std::unique_ptr<ServeServer> Server;
  std::vector<std::string> Texts;
  std::vector<PipelineReport> WarmReports(Keys.size());

  // Set-up: start a daemon, render the modules and run every warm key
  // once through it. Repeated on fresh daemons; the median is reported
  // and the last daemon serves the measured phase.
  for (int Rep = 0; Rep != (O.Units ? 1 : 3); ++Rep) {
    Server.reset();
    Clock::time_point T0 = Clock::now();
    ServeServerConfig SC;
    SC.SocketPath = Socket;
    SC.Workers = NProc;
    Server = std::make_unique<ServeServer>(SC);
    std::string Err;
    if (!Server->start(&Err)) {
      std::fprintf(stderr, "perfbench: serve: %s\n", Err.c_str());
      std::exit(2);
    }
    Texts.clear();
    for (const WorkloadSpec &S : Suite)
      Texts.push_back(buildWorkload(S)->toString());
    std::atomic<unsigned> Next{0};
    withClients(R, Socket, Clients, [&](unsigned, ServeClient &Client) {
      for (unsigned K; (K = Next.fetch_add(1)) < Keys.size();) {
        ServeResponse Resp;
        std::string Err;
        bool Sent = Client.run(Texts[Keys[K].Prog], "",
                               overridesFor(Keys[K].Cores), Resp, &Err);
        ++R.Attempted;
        if (!Sent || !Resp.Ok || !Resp.HasReport || !Resp.Report.OutputsMatch)
          R.failure("serve warm-up %s@%u: %s", Suite[Keys[K].Prog].Name.c_str(),
                    Keys[K].Cores, Sent ? Resp.Error.c_str() : Err.c_str());
        else
          WarmReports[K] = Resp.Report;
      }
    });
    R.SetupS.push_back(msSince(T0) / 1000.0);
  }

  std::vector<double> SimSpeedups;
  double MaxErr = 0;
  for (size_t K = 0; K != Keys.size(); ++K)
    if (Keys[K].Cores == SuiteCores)
      addSimResult(R, Suite[Keys[K].Prog].Name, WarmReports[K], SimSpeedups,
                   MaxErr);
  setSimSummary(R, SimSpeedups, MaxErr);

  ServePlan Plan(O.Seed, unsigned(Keys.size()));
  uint64_t PlanBase = 0;
  for (bool Traced : {false, true}) {
    if (Traced && !O.Trace)
      break;
    Phase P(O.Trace ? O.Seconds / 2 : O.Seconds, O.Units);
    ServeStats S0 = Server->stats();
    DecodeCache::Counters Dec0 = DecodeCache::global().counters();
    std::atomic<unsigned> Next{0}, Admitted{0};
    std::vector<std::pair<uint64_t, double>> ColdSamples;
    std::mutex Mu; // guards R and ColdSamples
    Clock::time_point T0 = Clock::now();
    withClients(R, Socket, Clients, [&](unsigned, ServeClient &Client) {
      Layers L;
      std::vector<double> Warm;
      std::vector<std::pair<uint64_t, double>> Cold; // (cold ordinal, ms)
      for (unsigned K; P.admits(K = Next.fetch_add(1));) {
        ++Admitted;
        ServeRequestPlan Req = Plan.at(PlanBase + K);
        std::string ColdText;
        if (Req.Cold) {
          WorkloadSpec Spec = Suite[Req.Key];
          Spec.Seed = Req.ColdSeed;
          ColdText = buildWorkload(Spec)->toString();
        }
        const std::string &Text =
            Req.Cold ? ColdText : Texts[Keys[Req.Key].Prog];
        unsigned Cores = Req.Cold ? SuiteCores : Keys[Req.Key].Cores;
        if (Traced) {
          // The client-side view of the IR layer: parse the request text
          // and print it back, as the daemon does on its side.
          ParseResult PR;
          L.add("ir.parse.ms", timeMs([&] { PR = parseModule(Text); }));
          if (PR.succeeded())
            L.add("ir.print.ms", timeMs([&] { (void)PR.M->toString(); }));
        }
        ServeResponse Resp;
        std::string Err;
        Clock::time_point Sent0 = Clock::now();
        bool Sent = Client.run(Text, "", overridesFor(Cores), Resp, &Err);
        double Ms = msSince(Sent0);
        ++R.Attempted;
        bool Ok = Sent && Resp.Ok && Resp.HasReport &&
                  Resp.Report.OutputsMatch;
        // A warmed key must come back with the same simulated result the
        // warm-up computed: the cache may change cost, never the answer.
        if (Ok && !Req.Cold)
          Ok = Resp.Report.Speedup == WarmReports[Req.Key].Speedup &&
               Resp.Report.ParCycles == WarmReports[Req.Key].ParCycles;
        if (!Ok) {
          R.failure("serve request %u (%s): %s", K,
                    Req.Cold ? "cold" : "warm",
                    !Sent ? Err.c_str()
                    : !Resp.Ok ? Resp.Error.c_str()
                               : "report differs from the warm-up run");
          continue;
        }
        if (Req.Cold)
          Cold.push_back({Req.ColdOrdinal, Ms});
        else
          Warm.push_back(Ms);
        if (!Traced)
          continue;
        double StageMs = 0;
        for (const StageSummary &St : Resp.Stages) {
          addStageRun(L, St.Name, St.WallMillis, St.InterpretedInstructions);
          StageMs += St.WallMillis;
        }
        L.add("serve.overhead.ms", Ms - StageMs);
        L.addPassTimings(Resp.Report.TransformPassTimings);
        L.addAnalysisBuilds(Resp.Report.TransformAnalysisCounters);
        L.addAnalysisBuilds(Resp.Report.ModelProfileAnalysisCounters);
        L.add("check.sync.loops", Resp.Report.SyncCheck.LoopsChecked);
        L.add("check.dep.witnessed", Resp.Report.DepAudit.Witnessed);
      }
      std::lock_guard<std::mutex> Lock(Mu);
      if (Traced) {
        R.L.mergeSums(L);
        R.TracedUnits += Warm.size() + Cold.size();
      } else {
        R.UnitMs.insert(R.UnitMs.end(), Warm.begin(), Warm.end());
        ColdSamples.insert(ColdSamples.end(), Cold.begin(), Cold.end());
        R.Units += Warm.size() + Cold.size();
      }
    });
    double S = msSince(T0) / 1000.0;
    PlanBase += Admitted.load();
    if (!Traced) {
      R.ElapsedS = S;
      // Cold requests cycle through the suite programs; keep whole cycles
      // only, so every program weighs the same in cold_ms_p50.
      size_t N = Suite.size();
      uint64_t Keep = ColdSamples.size() < N ? ColdSamples.size()
                                             : ColdSamples.size() / N * N;
      for (const auto &[Ordinal, Ms] : ColdSamples)
        if (Ordinal < Keep)
          R.ColdMs.push_back(Ms);
      continue;
    }
    R.TracedElapsedS = S;
    ServeStats S1 = Server->stats();
    DecodeCache::Counters Dec1 = DecodeCache::global().counters();
    R.L.add("pipeline.cache.hits", double(S1.CacheHits - S0.CacheHits));
    R.L.add("pipeline.cache.misses", double(S1.CacheMisses - S0.CacheMisses));
    R.L.add("pipeline.cache.stores", double(S1.CacheStores - S0.CacheStores));
    R.L.add("serve.coalesced", double(S1.Coalesced - S0.Coalesced));
    R.L.add("serve.rejected", double(S1.Rejected - S0.Rejected));
    R.L.add("exec.decode.decodes", double(Dec1.Decodes - Dec0.Decodes));
    R.L.add("exec.decode.hits", double(Dec1.Hits - Dec0.Hits));
  }
  Plan.digest(R.Inputs, PlanBase);
  ServeStats Final = Server->stats();
  if (Final.Rejected)
    R.failure("serve: %llu requests rejected by admission control",
              (unsigned long long)Final.Rejected);
  Server->stop();
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void printRunLine(const Run &R, const Options &O, unsigned NProc) {
  Json Threads = Json::object();
  for (const auto &[K, V] : R.Config)
    Threads.set(K, Json::str(V));
  Json Det = Json::object();
  for (const auto &[K, V] : R.Deterministic)
    Det.set(K, Json::number(V));
  Json Run = Json::object();
  Run.set("workload", Json::str(O.Workload));
  Run.set("seed", Json::str(std::to_string(O.Seed)));
  Run.set("nproc", Json::integer(NProc));
  Run.set("trace", Json::integer(O.Trace));
  Run.set("units", Json::integer(int64_t(R.Units)));
  Run.set("traced_units", Json::integer(int64_t(R.TracedUnits)));
  Run.set("failed_frac",
          Json::number(double(R.Failed) / double(std::max<uint64_t>(
                                              1, R.Attempted.load()))));
  Run.set("inputs_digest", Json::str(std::to_string(R.Inputs.H)));
  Run.set("threads", std::move(Threads));
  Run.set("deterministic", std::move(Det));
  Json Line = Json::object();
  Line.set("run", std::move(Run));
  std::printf("%s\n", Line.toString().c_str());
}

void printResult(const Run &R, const Options &O) {
  std::vector<std::pair<MetricDef, double>> Out;
  if (!O.Trace) {
    Out.push_back({{"setup_s", "s"}, percentile(R.SetupS, 0.5)});
    Out.push_back({{"peak_rss_mb", "MB"}, peakRssMb()});
    Out.push_back({{"throughput_per_s", "1/s"}, double(R.Units) / R.ElapsedS});
    Out.push_back({{"latency_ms_p50", "ms"}, percentile(R.UnitMs, 0.5)});
    Out.push_back({{"latency_ms_p90", "ms"}, percentile(R.UnitMs, 0.9)});
    Out.push_back({{"cold_ms_p50", "ms"}, percentile(R.ColdMs, 0.5)});
  } else {
    for (const MetricDef &D : layerMetrics())
      Out.push_back({D, R.L.value(D.Name, R.TracedUnits)});
  }
  Json Metrics = Json::object();
  for (const auto &[Def, Value] : Out) {
    Json M = Json::object();
    M.set("value", Json::number(std::isfinite(Value) ? Value : 0.0));
    M.set("unit", Json::str(Def.Unit));
    Metrics.set(Def.Name, std::move(M));
  }
  Json Line = Json::object();
  Line.set("correct", Json::boolean(R.Failed == 0));
  Line.set("attempted", Json::integer(int64_t(R.Attempted.load())));
  Line.set("failed", Json::integer(int64_t(R.Failed.load())));
  Line.set("metrics", std::move(Metrics));
  std::printf("%s\n", Line.toString().c_str());
}

void finishLayers(Run &R) {
  Layers &L = R.L;
  double SeqMs = L.sum("exec.seq.ms");
  if (SeqMs > 0)
    L.set("exec.seq.minstr_per_s", L.sum("exec.seq.instrs") / SeqMs / 1000.0);
  if (L.sum("runtime.invocations") > 0)
    L.set("runtime.ms_per_invocation",
          L.sum("runtime.t4.ms") / L.sum("runtime.invocations"));
  // Tracing overhead: per-unit wall of the traced half minus the
  // untraced half's, so the per-layer numbers can be weighed against the
  // end-to-end run they come from.
  if (R.TracedUnits && R.Units) {
    double Traced = R.TracedElapsedS * 1000.0 / double(R.TracedUnits);
    double Untraced = R.ElapsedS * 1000.0 / double(R.Units);
    L.set("trace.overhead_ms", Traced - Untraced);
    L.set("trace.overhead_pct", 100.0 * (Traced - Untraced) / Untraced);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload suite|fuzz|serve --seed N "
               "--seconds S --trace 0|1 [--units N]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = V;
      continue;
    }
    if (Arg == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (*End || !(O.Seconds > 0))
        return usage();
      continue;
    }
    if (*V == '-')
      return usage();
    unsigned long long N = std::strtoull(V, &End, 10);
    if (*End || End == V)
      return usage();
    if (Arg == "--seed")
      O.Seed = N;
    else if (Arg == "--trace" && N <= 1)
      O.Trace = N == 1;
    else if (Arg == "--units")
      O.Units = unsigned(N);
    else
      return usage();
  }
  if (O.Workload != "suite" && O.Workload != "fuzz" && O.Workload != "serve")
    return usage();

  // Refuse to oversubscribe: every fixed thread count must fit the
  // machine, or real-thread numbers would measure the scheduler.
  unsigned NProc = std::max(1u, std::thread::hardware_concurrency());
  if (NProc < SuiteCores) {
    std::fprintf(stderr,
                 "perfbench: needs %u hardware threads for its 4-worker "
                 "runs, this machine has %u\n",
                 SuiteCores, NProc);
    return 2;
  }

  Run R;
  if (O.Workload == "suite")
    runSuite(R, O, NProc);
  else if (O.Workload == "fuzz")
    runFuzz(R, O);
  else
    runServe(R, O, NProc);
  finishLayers(R);
  printRunLine(R, O, NProc);
  printResult(R, O);
  return R.Failed ? 1 : 0;
}
