//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the resident serve subsystem: the wire protocol (round trips
/// and strict malformed-input rejection), the report JSON serialization,
/// and the server end to end over a real local socket — warm-cache
/// repeats, per-request error isolation, admission control, coalescing,
/// statistics, and concurrent clients.
///
//===----------------------------------------------------------------------===//

#include "pipeline/ReportJson.h"
#include "serve/ServeClient.h"
#include "serve/ServeServer.h"
#include "support/Format.h"
#include "workloads/WorkloadBuilder.h"

#include "HostileModules.h"

#include <atomic>
#include <gtest/gtest.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace helix;

namespace {

std::string uniqueSocketPath() {
  static std::atomic<unsigned> Counter{0};
  return formatStr("/tmp/helix-serve-test-%d-%u.sock", (int)getpid(),
                   Counter.fetch_add(1));
}

/// A small but real loop program (reduction kernel under a phase loop) —
/// enough structure for the full pipeline to profile, select, transform
/// and validate.
std::string testModuleText(unsigned TripCount = 64) {
  WorkloadSpec Spec;
  // [A-Za-z0-9_.] only: the name lands in global/function identifiers.
  Spec.Name = "servetest";
  Spec.MainRepeat = 1;
  PhaseSpec Phase;
  Phase.Repeat = 1;
  KernelSpec K;
  K.Idiom = KernelIdiom::Reduction;
  K.N = TripCount;
  K.Work = 2;
  Phase.Kernels.push_back(K);
  Spec.Phases.push_back(Phase);
  return buildWorkload(Spec)->toString();
}

ConfigOverrides smallOverrides() {
  ConfigOverrides O;
  O.NumCores = 4;
  O.ModelProfileThreads = 1;
  return O;
}

//===----------------------------------------------------------------------===//
// Protocol round trips
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, RunRequestRoundTrip) {
  ServeRequest Req;
  Req.Id = 42;
  Req.RequestKind = ServeRequest::Kind::Run;
  Req.ModuleText = "func @main(0) {\nentry:\n  ret\n}\n";
  Req.PipelineText = "profile,simulate";
  Req.Overrides.NumCores = 4;
  Req.Overrides.SignalCycles = 7.5;
  Req.Overrides.ForceNestingLevel = 1;
  Req.Overrides.MaxInterpInstructions = 123456;
  Req.Overrides.ModelProfileThreads = 1;
  Req.Overrides.DoAcross = true;

  std::string Wire = requestToJson(Req).toString();
  ServeRequest Back;
  std::string Err;
  ASSERT_TRUE(parseRequestLine(Wire, Back, &Err)) << Err;
  EXPECT_EQ(Back.Id, 42);
  EXPECT_EQ(Back.RequestKind, ServeRequest::Kind::Run);
  EXPECT_EQ(Back.ModuleText, Req.ModuleText);
  EXPECT_EQ(Back.PipelineText, "profile,simulate");
  ASSERT_TRUE(Back.Overrides.NumCores.has_value());
  EXPECT_EQ(*Back.Overrides.NumCores, 4);
  ASSERT_TRUE(Back.Overrides.SignalCycles.has_value());
  EXPECT_DOUBLE_EQ(*Back.Overrides.SignalCycles, 7.5);
  EXPECT_EQ(*Back.Overrides.ForceNestingLevel, 1);
  EXPECT_EQ(*Back.Overrides.MaxInterpInstructions, 123456);
  EXPECT_EQ(*Back.Overrides.ModelProfileThreads, 1);
  EXPECT_TRUE(*Back.Overrides.DoAcross);
  // Reprinting the reparse is byte-stable (the coalescing key relies on
  // deterministic printing).
  EXPECT_EQ(requestToJson(Back).toString(), Wire);
}

TEST(ServeProtocol, StatsAndShutdownRequestsRoundTrip) {
  for (auto Kind :
       {ServeRequest::Kind::Stats, ServeRequest::Kind::Shutdown}) {
    ServeRequest Req;
    Req.Id = 7;
    Req.RequestKind = Kind;
    ServeRequest Back;
    std::string Err;
    ASSERT_TRUE(parseRequestLine(requestToJson(Req).toString(), Back, &Err))
        << Err;
    EXPECT_EQ(Back.Id, 7);
    EXPECT_EQ(Back.RequestKind, Kind);
  }
}

TEST(ServeProtocol, ResponseRoundTripWithReportAndStages) {
  ServeResponse Resp;
  Resp.Id = 9;
  Resp.Ok = true;
  Resp.Coalesced = true;
  Resp.HasReport = true;
  Resp.Report.Ok = true;
  Resp.Report.SeqCycles = 1000;
  Resp.Report.ParCycles = 300;
  Resp.Report.Speedup = 3.333;
  Resp.Report.OutputsMatch = true;
  Resp.Report.Decode.Decodes = 2;
  Resp.Report.Decode.Hits = 5;
  LoopReport L;
  L.Name = "kernel.k";
  L.Node = 3;
  L.Inputs.SeqCycles = 900;
  L.Sim.ParallelCycles = 250;
  Resp.Report.Loops.push_back(L);
  StageSummary S;
  S.Name = "profile";
  S.Source = "cache";
  S.WallMillis = 1.25;
  S.InterpretedInstructions = 0;
  Resp.Stages.push_back(S);

  ServeResponse Back;
  std::string Err;
  ASSERT_TRUE(responseFromJson(responseToJson(Resp), Back, &Err)) << Err;
  EXPECT_EQ(Back.Id, 9);
  EXPECT_TRUE(Back.Ok);
  EXPECT_TRUE(Back.Coalesced);
  ASSERT_TRUE(Back.HasReport);
  EXPECT_EQ(Back.Report.SeqCycles, 1000u);
  EXPECT_EQ(Back.Report.ParCycles, 300u);
  EXPECT_DOUBLE_EQ(Back.Report.Speedup, 3.333);
  EXPECT_EQ(Back.Report.Decode.Decodes, 2u);
  EXPECT_EQ(Back.Report.Decode.Hits, 5u);
  ASSERT_EQ(Back.Report.Loops.size(), 1u);
  EXPECT_EQ(Back.Report.Loops[0].Name, "kernel.k");
  EXPECT_EQ(Back.Report.Loops[0].Inputs.SeqCycles, 900u);
  EXPECT_EQ(Back.Report.Loops[0].Sim.ParallelCycles, 250u);
  ASSERT_EQ(Back.Stages.size(), 1u);
  EXPECT_EQ(Back.Stages[0].Name, "profile");
  EXPECT_EQ(Back.Stages[0].Source, "cache");
  EXPECT_DOUBLE_EQ(Back.Stages[0].WallMillis, 1.25);
}

TEST(ServeProtocol, StatsResponseRoundTrip) {
  ServeResponse Resp;
  Resp.Id = 11;
  Resp.Ok = true;
  Resp.HasStats = true;
  Resp.Stats.Received = 100;
  Resp.Stats.Served = 90;
  Resp.Stats.Failed = 5;
  Resp.Stats.Rejected = 3;
  Resp.Stats.Coalesced = 40;
  Resp.Stats.CacheHits = 33;
  Resp.Stats.CacheMisses = 7;
  Resp.Stats.DecodeDecodes = 12;
  Resp.Stats.DecodeHits = 60;
  Resp.Stats.DecodeEvictions = 1;
  Resp.Stats.DecodeBodyHits = 4;
  Resp.Stats.Stages.push_back({"profile", 4, 86, 12.5});

  ServeResponse Back;
  std::string Err;
  ASSERT_TRUE(responseFromJson(responseToJson(Resp), Back, &Err)) << Err;
  ASSERT_TRUE(Back.HasStats);
  EXPECT_EQ(Back.Stats.Received, 100u);
  EXPECT_EQ(Back.Stats.Served, 90u);
  EXPECT_EQ(Back.Stats.Rejected, 3u);
  EXPECT_EQ(Back.Stats.Coalesced, 40u);
  EXPECT_EQ(Back.Stats.CacheHits, 33u);
  EXPECT_EQ(Back.Stats.DecodeDecodes, 12u);
  EXPECT_EQ(Back.Stats.DecodeEvictions, 1u);
  EXPECT_EQ(Back.Stats.DecodeBodyHits, 4u);
  ASSERT_EQ(Back.Stats.Stages.size(), 1u);
  EXPECT_EQ(Back.Stats.Stages[0].Name, "profile");
  EXPECT_EQ(Back.Stats.Stages[0].Executions, 4u);
  EXPECT_EQ(Back.Stats.Stages[0].Reuses, 86u);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  ServeRequest R;
  std::string Err;
  // Not JSON at all.
  EXPECT_FALSE(parseRequestLine("not json", R, &Err));
  // Not an object.
  EXPECT_FALSE(parseRequestLine("[1,2]", R, &Err));
  // Missing id.
  EXPECT_FALSE(parseRequestLine("{\"kind\":\"stats\"}", R, &Err));
  // Non-integer id.
  EXPECT_FALSE(parseRequestLine("{\"id\":\"x\",\"kind\":\"stats\"}", R, &Err));
  // Missing kind.
  EXPECT_FALSE(parseRequestLine("{\"id\":1}", R, &Err));
  // Unknown kind.
  EXPECT_FALSE(parseRequestLine("{\"id\":1,\"kind\":\"dance\"}", R, &Err));
  // Run without a module.
  EXPECT_FALSE(parseRequestLine("{\"id\":1,\"kind\":\"run\"}", R, &Err));
  // Run with an empty module.
  EXPECT_FALSE(
      parseRequestLine("{\"id\":1,\"kind\":\"run\",\"module\":\"\"}", R, &Err));
  // Mistyped pipeline.
  EXPECT_FALSE(parseRequestLine(
      "{\"id\":1,\"kind\":\"run\",\"module\":\"m\",\"pipeline\":3}", R, &Err));
  // Unknown override key.
  EXPECT_FALSE(parseRequestLine("{\"id\":1,\"kind\":\"run\",\"module\":\"m\","
                                "\"config\":{\"warp_factor\":9}}",
                                R, &Err));
  EXPECT_NE(Err.find("warp_factor"), std::string::npos);
  // Mistyped override value.
  EXPECT_FALSE(parseRequestLine("{\"id\":1,\"kind\":\"run\",\"module\":\"m\","
                                "\"config\":{\"num_cores\":\"four\"}}",
                                R, &Err));
}

TEST(ServeProtocol, RejectsMalformedResponses) {
  ServeResponse R;
  std::string Err;
  Json V;
  ASSERT_TRUE(Json::parse("{\"ok\":true}", V, nullptr));
  EXPECT_FALSE(responseFromJson(V, R, &Err)) << "missing id";
  ASSERT_TRUE(Json::parse("{\"id\":1}", V, nullptr));
  EXPECT_FALSE(responseFromJson(V, R, &Err)) << "missing ok";
  ASSERT_TRUE(Json::parse("{\"id\":1,\"ok\":true,\"report\":7}", V, nullptr));
  EXPECT_FALSE(responseFromJson(V, R, &Err)) << "mistyped report";
}

TEST(ServeProtocol, ReportJsonRoundTripsEveryField) {
  PipelineReport R;
  R.Ok = true;
  R.SeqCycles = 123456;
  R.ParCycles = 23456;
  R.Speedup = 5.26;
  R.ModelSpeedup = 4.9;
  R.OutputsMatch = true;
  R.NumCandidates = 7;
  R.NumLoopsInProgram = 12;
  LoopReport L;
  L.Name = "f.k";
  L.Node = 4;
  L.NestingLevel = 2;
  L.Inputs.SeqCycles = 999;
  L.Inputs.EffSignalCycles = 3.5;
  L.Inputs.SelfStarting = true;
  L.Sim.WaitStallCycles = 77;
  L.NumDepsTotal = 9;
  L.NumSegments = 2;
  R.Loops.push_back(L);
  R.TransformPassTimings.push_back({"dependence", 4.25, 3});
  R.TransformAnalysisCounters.push_back({"loops", 2, 10, 1});
  R.ModelProfileAnalysisCounters.push_back({"ddg", 5, 2, 0});
  R.Decode = {3, 8, 1, 2};
  R.PctParallel = 60.5;
  R.PctSeqData = 10.25;
  R.PctSeqControl = 4.75;
  R.PctOutside = 24.5;
  R.LoopCarriedPct = 11.1;
  R.SignalsRemovedPct = 44.4;
  R.DataTransferPct = 2.5;
  R.MaxCodeInstrs = 1234;
  obs::MetricSample Steps;
  Steps.Name = "exec.dispatch.steps";
  Steps.K = obs::MetricSample::Kind::Counter;
  Steps.Value = 987;
  R.Metrics.push_back(Steps);
  obs::MetricSample Wall;
  Wall.Name = "pipeline.stage.wall_ms";
  Wall.K = obs::MetricSample::Kind::Histogram;
  Wall.Value = 3;
  Wall.Sum = 120;
  Wall.Buckets = {{10, 2}, {100, 1}, {-1, 0}};
  R.Metrics.push_back(Wall);

  PipelineReport Back;
  std::string Err;
  ASSERT_TRUE(reportFromJson(reportToJson(R), Back, &Err)) << Err;
  EXPECT_EQ(Back.SeqCycles, R.SeqCycles);
  EXPECT_EQ(Back.ParCycles, R.ParCycles);
  EXPECT_DOUBLE_EQ(Back.Speedup, R.Speedup);
  EXPECT_DOUBLE_EQ(Back.ModelSpeedup, R.ModelSpeedup);
  EXPECT_EQ(Back.NumCandidates, R.NumCandidates);
  EXPECT_EQ(Back.NumLoopsInProgram, R.NumLoopsInProgram);
  ASSERT_EQ(Back.Loops.size(), 1u);
  EXPECT_EQ(Back.Loops[0].Name, "f.k");
  EXPECT_EQ(Back.Loops[0].NestingLevel, 2u);
  EXPECT_DOUBLE_EQ(Back.Loops[0].Inputs.EffSignalCycles, 3.5);
  EXPECT_TRUE(Back.Loops[0].Inputs.SelfStarting);
  EXPECT_EQ(Back.Loops[0].Sim.WaitStallCycles, 77u);
  EXPECT_EQ(Back.Loops[0].NumDepsTotal, 9u);
  EXPECT_EQ(Back.Loops[0].NumSegments, 2u);
  ASSERT_EQ(Back.TransformPassTimings.size(), 1u);
  EXPECT_EQ(Back.TransformPassTimings[0].Pass, "dependence");
  EXPECT_DOUBLE_EQ(Back.TransformPassTimings[0].Millis, 4.25);
  ASSERT_EQ(Back.TransformAnalysisCounters.size(), 1u);
  EXPECT_EQ(Back.TransformAnalysisCounters[0].Hits, 10u);
  ASSERT_EQ(Back.ModelProfileAnalysisCounters.size(), 1u);
  EXPECT_EQ(Back.ModelProfileAnalysisCounters[0].Built, 5u);
  EXPECT_EQ(Back.Decode.Decodes, 3u);
  EXPECT_EQ(Back.Decode.Hits, 8u);
  EXPECT_EQ(Back.Decode.Evictions, 1u);
  EXPECT_EQ(Back.Decode.BodyHits, 2u);
  EXPECT_DOUBLE_EQ(Back.PctParallel, 60.5);
  EXPECT_DOUBLE_EQ(Back.LoopCarriedPct, 11.1);
  EXPECT_EQ(Back.MaxCodeInstrs, 1234u);
  ASSERT_EQ(Back.Metrics.size(), 2u);
  EXPECT_TRUE(Back.Metrics[0] == R.Metrics[0]);
  EXPECT_TRUE(Back.Metrics[1] == R.Metrics[1]);
  // Byte-stable reprint.
  EXPECT_EQ(reportToJson(Back).toString(), reportToJson(R).toString());
}

//===----------------------------------------------------------------------===//
// End to end over a real socket
//===----------------------------------------------------------------------===//

struct ServerFixture {
  explicit ServerFixture(unsigned MaxInFlight = 16) {
    Config.SocketPath = uniqueSocketPath();
    Config.Workers = 4;
    Config.MaxInFlight = MaxInFlight;
    Server = std::make_unique<ServeServer>(Config);
    std::string Err;
    Ok = Server->start(&Err);
    Error = Err;
  }
  ~ServerFixture() { Server->stop(); }

  ServeServerConfig Config;
  std::unique_ptr<ServeServer> Server;
  bool Ok = false;
  std::string Error;
};

TEST(ServeServer, RunsAModuleEndToEnd) {
  ServerFixture F;
  ASSERT_TRUE(F.Ok) << F.Error;

  ServeClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(F.Config.SocketPath, &Err)) << Err;

  ServeResponse Resp;
  ASSERT_TRUE(Client.run(testModuleText(), "", smallOverrides(), Resp, &Err))
      << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;
  ASSERT_TRUE(Resp.HasReport);
  EXPECT_TRUE(Resp.Report.OutputsMatch);
  EXPECT_GT(Resp.Report.SeqCycles, 0u);
  EXPECT_FALSE(Resp.Stages.empty());
  // A cold run executed the training stages.
  EXPECT_EQ(Resp.Stages[0].Name, "profile");
  EXPECT_EQ(Resp.Stages[0].Source, "executed");
  EXPECT_GT(Resp.Stages[0].InterpretedInstructions, 0u);
}

TEST(ServeServer, WarmRepeatSkipsEveryTrainingRun) {
  ServerFixture F;
  ASSERT_TRUE(F.Ok) << F.Error;

  ServeClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(F.Config.SocketPath, &Err)) << Err;

  // "select" completes to profile,candidates,model-profile,select — every
  // stage of this pipeline is persisted, so a warm repeat must run no
  // interpreter at all and decode nothing.
  const std::string Module = testModuleText();
  ServeResponse Cold;
  ASSERT_TRUE(Client.run(Module, "select", smallOverrides(), Cold, &Err))
      << Err;
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  uint64_t ColdInstrs = 0;
  for (const StageSummary &S : Cold.Stages)
    ColdInstrs += S.InterpretedInstructions;
  EXPECT_GT(ColdInstrs, 0u) << "cold run must actually train";
  // Decode work happened: a full body decode, or — when an earlier test in
  // this process already decoded a structurally identical module — an
  // instance rebind around the content-addressed shared body.
  EXPECT_GT(Cold.Report.Decode.Decodes + Cold.Report.Decode.BodyHits, 0u);

  ServeResponse Warm;
  ASSERT_TRUE(Client.run(Module, "select", smallOverrides(), Warm, &Err))
      << Err;
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  uint64_t WarmInstrs = 0;
  for (const StageSummary &S : Warm.Stages) {
    WarmInstrs += S.InterpretedInstructions;
    EXPECT_NE(S.Source, "executed") << S.Name << " re-executed when warm";
  }
  EXPECT_EQ(WarmInstrs, 0u) << "warm repeat ran a training interpreter";
  EXPECT_EQ(Warm.Report.Decode.Decodes, 0u)
      << "warm repeat decoded the module";
  EXPECT_EQ(Warm.Report.Decode.BodyHits, 0u)
      << "warm repeat rebuilt decode instance tables";

  // The server-side cache counters saw the repeat.
  ServeStats Stats;
  ASSERT_TRUE(Client.stats(Stats, &Err)) << Err;
  EXPECT_GT(Stats.CacheHits, 0u);
  EXPECT_GT(Stats.CacheStores, 0u);
}

TEST(ServeServer, ParseErrorIsIsolatedToTheRequest) {
  ServerFixture F;
  ASSERT_TRUE(F.Ok) << F.Error;

  ServeClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(F.Config.SocketPath, &Err)) << Err;

  ServeResponse Resp;
  ASSERT_TRUE(Client.run("func @main(0) { this is not ir", "",
                         ConfigOverrides(), Resp, &Err))
      << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find("parse"), std::string::npos) << Resp.Error;

  // The same connection keeps working afterwards.
  ASSERT_TRUE(Client.run(testModuleText(), "", smallOverrides(), Resp, &Err))
      << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;
}

TEST(ServeServer, TrappingModuleIsIsolatedToTheRequest) {
  ServerFixture F;
  ASSERT_TRUE(F.Ok) << F.Error;

  ServeClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(F.Config.SocketPath, &Err)) << Err;

  // r0/r1 start at 0: the div traps on the profile stage's training run.
  const char *Trapping = "func @main(0) {\n"
                         "entry:\n"
                         "  r0 = add r0, 1\n"
                         "  r2 = div r0, r1\n"
                         "  ret r2\n"
                         "}\n";
  ServeResponse Resp;
  ASSERT_TRUE(
      Client.run(Trapping, "", ConfigOverrides(), Resp, &Err))
      << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_FALSE(Resp.Error.empty());

  // The daemon survived and serves the next request.
  ASSERT_TRUE(Client.run(testModuleText(), "", smallOverrides(), Resp, &Err))
      << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;

  // A wild store far past the memory cap is a trap of its request too...
  HostileModule WildStore = hostileModules().front(); // store to 2^39
  ASSERT_TRUE(Client.run(WildStore.Text, "", ConfigOverrides(), Resp, &Err))
      << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find(WildStore.Trap), std::string::npos) << Resp.Error;

  // ...and the same daemon still serves a normal request afterwards.
  ASSERT_TRUE(Client.run(testModuleText(), "", smallOverrides(), Resp, &Err))
      << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;
}

TEST(ServeServer, MalformedWireRequestGetsAStructuredError) {
  ServerFixture F;
  ASSERT_TRUE(F.Ok) << F.Error;

  Socket S = Socket::connectTo(F.Config.SocketPath, nullptr);
  ASSERT_TRUE(S.valid());
  ASSERT_TRUE(S.sendAll("{\"id\":5,\"kind\":\"dance\"}\n"));
  std::string Line;
  ASSERT_TRUE(S.recvLine(Line));
  ServeResponse Resp;
  Json V;
  ASSERT_TRUE(Json::parse(Line, V, nullptr));
  std::string Err;
  ASSERT_TRUE(responseFromJson(V, Resp, &Err)) << Err;
  EXPECT_EQ(Resp.Id, 5) << "id echoed even for invalid requests";
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find("dance"), std::string::npos);

  // Unparseable bytes also get an error line, not a dropped connection.
  ASSERT_TRUE(S.sendAll("not json at all\n"));
  ASSERT_TRUE(S.recvLine(Line));
  ASSERT_TRUE(Json::parse(Line, V, nullptr));
  ASSERT_TRUE(responseFromJson(V, Resp, &Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
}

TEST(ServeServer, AdmissionControlRejectsBeyondTheBound) {
  ServerFixture F(/*MaxInFlight=*/0);
  ASSERT_TRUE(F.Ok) << F.Error;

  ServeClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(F.Config.SocketPath, &Err)) << Err;

  ServeResponse Resp;
  ASSERT_TRUE(Client.run(testModuleText(), "", smallOverrides(), Resp, &Err))
      << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find("rejected"), std::string::npos) << Resp.Error;

  ServeStats Stats;
  ASSERT_TRUE(Client.stats(Stats, &Err)) << Err;
  EXPECT_GT(Stats.Rejected, 0u);
}

TEST(ServeServer, InvalidOverrideValueFailsTheRequestOnly) {
  ServerFixture F;
  ASSERT_TRUE(F.Ok) << F.Error;

  ServeClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(F.Config.SocketPath, &Err)) << Err;

  ConfigOverrides Bad;
  Bad.NumCores = 0; // rejected by PipelineConfig::validate
  ServeResponse Resp;
  ASSERT_TRUE(Client.run(testModuleText(), "", Bad, Resp, &Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find("NumCores"), std::string::npos) << Resp.Error;

  ASSERT_TRUE(Client.run(testModuleText(), "", smallOverrides(), Resp, &Err))
      << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;
}

TEST(ServeServer, StatsEndpointCountsTraffic) {
  ServerFixture F;
  ASSERT_TRUE(F.Ok) << F.Error;

  ServeClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(F.Config.SocketPath, &Err)) << Err;

  ServeResponse Resp;
  ASSERT_TRUE(Client.run(testModuleText(), "", smallOverrides(), Resp, &Err))
      << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;

  ServeStats Stats;
  ASSERT_TRUE(Client.stats(Stats, &Err)) << Err;
  EXPECT_GE(Stats.Received, 2u); // the run + this stats request
  EXPECT_EQ(Stats.Served, 1u);
  EXPECT_FALSE(Stats.Stages.empty());
  bool SawProfile = false;
  for (const ServeStats::StageAgg &A : Stats.Stages)
    if (A.Name == "profile") {
      SawProfile = true;
      EXPECT_EQ(A.Executions, 1u);
    }
  EXPECT_TRUE(SawProfile);
}

TEST(ServeServer, ConcurrentClientsAllGetCorrectReports) {
  ServerFixture F;
  ASSERT_TRUE(F.Ok) << F.Error;

  // Two module families: half the submissions repeat family 0 (stressing
  // coalescing + warm cache), half alternate (stressing distinct keys).
  const std::string ModA = testModuleText(48);
  const std::string ModB = testModuleText(80);

  constexpr unsigned NumClients = 8;
  constexpr unsigned PerClient = 4;
  std::atomic<unsigned> Failures{0};
  std::atomic<unsigned> OkRuns{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != NumClients; ++C) {
    Threads.emplace_back([&, C] {
      ServeClient Client;
      std::string Err;
      if (!Client.connect(F.Config.SocketPath, &Err)) {
        Failures.fetch_add(1);
        return;
      }
      for (unsigned I = 0; I != PerClient; ++I) {
        const std::string &Mod = (C + I) % 2 ? ModA : ModB;
        ServeResponse Resp;
        if (!Client.run(Mod, "", smallOverrides(), Resp, &Err) || !Resp.Ok ||
            !Resp.HasReport || !Resp.Report.OutputsMatch) {
          Failures.fetch_add(1);
          continue;
        }
        OkRuns.fetch_add(1);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(OkRuns.load(), NumClients * PerClient);
}

TEST(ServeServer, ShutdownRequestStopsTheDaemon) {
  ServerFixture F;
  ASSERT_TRUE(F.Ok) << F.Error;

  ServeClient Client;
  std::string Err;
  ASSERT_TRUE(Client.connect(F.Config.SocketPath, &Err)) << Err;
  ASSERT_TRUE(Client.shutdownServer(&Err)) << Err;
  EXPECT_TRUE(F.Server->shutdownRequested());
  F.Server->waitForShutdownRequest(); // returns immediately now
  F.Server->stop();
  EXPECT_FALSE(F.Server->running());
}

} // namespace
