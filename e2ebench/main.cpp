//===- main.cpp - bench_e2e: the end-to-end benchmark ---------------------===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
// Usage:
//   bench_e2e [--seed N] [--workload NAME]... [--rounds R] [--slice S]
//             [--trace DIR] [--trace-slice S] [--quick] [--out FILE]
//             [--scratch DIR]
//   bench_e2e --compare BASE.json OTHER.json [OTHER.json...]
//   bench_e2e --counters-out FILE | --check-counters FILE [--seed N]
//
// Runs five closed-loop, single-client workloads and checks every
// output. A single-threaded parent starts one child process per
// (workload, round); the child sets up and runs one pass over its
// inputs (setup_s is set-up plus the pass's mean item), reads its peak
// RSS, warms up untimed, then measures a slice and sends its per-item
// latencies back over a pipe. Only one child runs at a time and the
// workload order rotates each round, so machine drift falls on every
// workload alike.
// With --trace, one more child per workload measures an untraced and
// then a traced slice, writes a Perfetto trace, and reports per-layer
// self times and the deterministic work counters. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Report.h"
#include "Workloads.h"

#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/Trace.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace e2e;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: bench_e2e [options]\n"
      "       bench_e2e --compare BASE.json OTHER.json [OTHER.json...]\n"
      "       bench_e2e --counters-out FILE | --check-counters FILE\n"
      "\n"
      "options:\n"
      "  --seed N           input seed (default 1)\n"
      "  --workload NAME    run only NAME (repeatable): corpus-cold,\n"
      "                     unit-large-cold, edit-warm, run-dynamic,\n"
      "                     fuzz-campaign\n"
      "  --rounds R         rounds per workload (default 10; 0 with --trace\n"
      "                     runs only the traced children)\n"
      "  --slice S          timed seconds per round (default 2)\n"
      "  --trace DIR        also run one traced child per workload and write\n"
      "                     DIR/<workload>.trace.json\n"
      "  --trace-slice S    seconds of its untraced and of its traced slice\n"
      "                     (default 2)\n"
      "  --quick            1 round, 0.2 s slices, 0.1 s warm-up\n"
      "  --out FILE         append this run to the result file FILE\n"
      "  --scratch DIR      private files of the workloads (default: next\n"
      "                     to the executable)\n"
      "  --compare ...      compare result files under BENCHMARK.json's\n"
      "                     bounds; exit 1 if a row is worse or unresolved\n"
      "  --counters-out F   write the deterministic counter pass to F\n"
      "  --check-counters F run the counter pass twice, and at jobs 1, and\n"
      "                     require every pinned counter to equal F's\n");
}

/// Untimed seconds before each slice; --quick uses QuickWarmupS.
constexpr double WarmupS = 0.2;
constexpr double QuickWarmupS = 0.1;

/// Round R's items are numbered from R * RoundItems: the rounds of a
/// run then see different campaigns and edits instead of repeating one
/// seed's first few hundred, so a run's tail latency and cold item do
/// not hinge on a handful of inputs.
constexpr uint64_t RoundItems = 1000000;

struct Options {
  uint64_t Seed = 1;
  std::vector<std::string> Workloads;
  unsigned Rounds = 10;
  double SliceS = 2.0;
  double TraceSliceS = 2.0;
  bool Quick = false;
  std::string TraceDir;
  std::string OutPath;
  std::string ScratchDir;
};

//===----------------------------------------------------------------------===//
// The child: one workload, one round
//===----------------------------------------------------------------------===//

struct ChildSpec {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Round = 0; ///< The traced child is round 0.
  bool Quick = false;
  double SliceS = 0;
  std::string TraceDir; ///< Non-empty: the traced child.
  std::string ScratchDir;
};

bool writeAll(int Fd, const char *Data, size_t Size) {
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = write(Fd, Data + Done, Size - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Done += static_cast<size_t>(N);
  }
  return true;
}

/// The child's result channel: frames of a one-byte tag, a 32-bit
/// length and the payload. 'L' carries latencies (doubles, in ms), 'J'
/// the closing JSON object.
void writeFrame(int Fd, char Tag, const void *Data, uint32_t Size) {
  if (!writeAll(Fd, &Tag, 1) ||
      !writeAll(Fd, reinterpret_cast<const char *>(&Size), sizeof(Size)) ||
      !writeAll(Fd, static_cast<const char *>(Data), Size))
    throw std::runtime_error(std::string("result pipe: ") +
                             std::strerror(errno));
}

/// Peak resident set of this process so far (VmHWM), in MB.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string FirstFailure;

  void record(const ItemOutcome &O) {
    ++Attempted;
    if (!O.Ok && Failed++ == 0)
      FirstFailure = O.Failure;
  }
};

/// Runs items from \p Next until \p Seconds of wall time pass (at least
/// one item). Returns the item count and the seconds on the items'
/// clocks.
std::pair<uint64_t, double> loop(Workload &W, uint64_t &Next, Tally &T,
                                 double Seconds, vault::Tracer *Trc,
                                 std::vector<double> *LatMs) {
  uint64_t Items = 0;
  double Busy = 0;
  auto End = Clock::now() + std::chrono::duration<double>(Seconds);
  do {
    ItemOutcome O = W.runItem(Next++, Trc, nullptr);
    T.record(O);
    if (LatMs)
      LatMs->push_back(O.Seconds * 1e3);
    Busy += O.Seconds;
    ++Items;
  } while (Clock::now() < End);
  return {Items, Busy};
}

/// The traced child's per-layer values: span self times per traced
/// item, the counter pass per item, and the derived ratios.
std::string layerReport(Workload &W, const Probe &P, const std::string &Trace,
                        uint64_t Begin, uint64_t End, uint64_t TracedItems,
                        double OverheadPct) {
  std::map<std::string, double> All = W.setupLayers();
  std::map<std::string, double> SpanUs;
  std::string Err;
  if (!layerSelfTimes(Trace, Begin, End, SpanUs, Err))
    throw std::runtime_error(Err);
  for (const auto &[Layer, Us] : SpanUs)
    All[Layer + ".us"] = Us / static_cast<double>(TracedItems);
  const double PassItems = W.passItems();
  for (const auto &[Name, N] : P.Counts)
    All[Name] = static_cast<double>(N) / PassItems;
  if (P.Counts.count("lexer.tokens"))
    All["lexer.us"] = P.LexUs / PassItems;
  auto Count = [&](const char *Name) {
    auto It = P.Counts.find(Name);
    return It == P.Counts.end() ? 0.0 : static_cast<double>(It->second);
  };
  if (double Lookups = Count("sema.cache_hits") + Count("sema.cache_misses"))
    All["sema.cache_hit_ratio"] = Count("sema.cache_hits") / Lookups;
  All["bench.trace_overhead_pct"] = OverheadPct;

  std::string Out;
  for (const LayerMetric &M : W.layers()) {
    auto It = All.find(M.Name);
    if (It == All.end())
      throw std::runtime_error("layer metric " + M.Name + " was not measured");
    Out += std::string(Out.empty() ? "" : ", ") + "[" +
           vault::json::str(M.Name) + ", " + vault::json::num(It->second) +
           ", " + vault::json::str(M.Unit) + "]";
  }
  return Out;
}

/// Body of `bench_e2e --child`: set up, warm up, measure, report.
void childRun(const ChildSpec &S, int Fd) {
  std::unique_ptr<Workload> W = makeWorkload(S.Workload);
  const bool Traced = !S.TraceDir.empty();
  std::string Scratch =
      S.ScratchDir + "/" + S.Workload + "-" + std::to_string(getpid());
  fs::create_directories(Scratch);
  Tally T;
  const uint64_t First = S.Round * RoundItems;
  uint64_t Next = First;
  Probe P;

  // setup_s is set-up plus one cold item, the mean over a first pass of
  // passItems() items (in the traced child, round 0, the counter pass): work
  // moved into set-up shows in full, and the value does not depend on
  // which input the seed puts first. Peak RSS is read after that pass,
  // before any timed slice, so a leak cannot make faster code look
  // bigger.
  auto T0 = Clock::now();
  W->setup(S.Seed, Scratch);
  double SetupS = std::chrono::duration<double>(Clock::now() - T0).count();
  double PassS = 0;
  while (Next < First + W->passItems()) {
    ItemOutcome O = W->runItem(Next++, nullptr, Traced ? &P : nullptr);
    T.record(O);
    PassS += O.Seconds;
  }
  SetupS += PassS / W->passItems();
  double RssMb = peakRssMb();
  loop(*W, Next, T, S.Quick ? QuickWarmupS : WarmupS, nullptr, nullptr);

  std::string Out = "{\"setup_s\": " + vault::json::num(SetupS) +
                    ", \"peak_rss_mb\": " + vault::json::num(RssMb);
  if (!Traced) {
    std::vector<double> Lat;
    loop(*W, Next, T, S.SliceS, nullptr, &Lat);
    writeFrame(Fd, 'L', Lat.data(),
               static_cast<uint32_t>(Lat.size() * sizeof(double)));
  } else {
    auto [UItems, UBusy] = loop(*W, Next, T, S.SliceS, nullptr, nullptr);
    vault::Tracer Trc;
    Trc.complete(ThreadMarkerSpan, Trc.nowUs(), Trc.nowUs());
    W->attachTracer(&Trc);
    uint64_t Begin = Trc.nowUs();
    auto [TItems, TBusy] = loop(*W, Next, T, S.SliceS, &Trc, nullptr);
    uint64_t End = Trc.nowUs();
    std::string Trace = Trc.json();
    std::string TracePath = S.TraceDir + "/" + S.Workload + ".trace.json";
    if (!(std::ofstream(TracePath, std::ios::binary | std::ios::trunc)
          << Trace))
      throw std::runtime_error("cannot write " + TracePath);
    double UntracedRate = UItems / UBusy, TracedRate = TItems / TBusy;
    Out += ", \"trace_file\": " + vault::json::str(TracePath) +
           ", \"traced_items\": " + std::to_string(TItems) +
           ", \"layers\": [" +
           layerReport(*W, P, Trace, Begin, End, TItems,
                       100 * (UntracedRate - TracedRate) / UntracedRate) +
           "]";
  }
  Out += ", \"attempted\": " + std::to_string(T.Attempted) +
         ", \"failed\": " + std::to_string(T.Failed) +
         ", \"first_failure\": " + vault::json::str(T.FirstFailure) + "}";
  std::error_code EC;
  fs::remove_all(Scratch, EC);
  writeFrame(Fd, 'J', Out.data(), static_cast<uint32_t>(Out.size()));
}

struct ChildResult {
  std::string Error; ///< Non-empty when the child did not finish.
  double SetupS = 0;
  double PeakRssMb = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string FirstFailure;
  std::vector<double> LatMs;
  std::vector<std::tuple<std::string, double, std::string>> Layers;
  std::string TraceFile;
  uint64_t TracedItems = 0;
};

/// Starts `bench_e2e --child` for \p S (a fresh process image, so its
/// peak RSS is its own) and collects its result.
ChildResult runChild(const ChildSpec &S) {
  ChildResult R;
  int Fds[2];
  if (pipe(Fds) != 0) {
    R.Error = std::string("pipe: ") + std::strerror(errno);
    return R;
  }
  std::vector<std::string> Args = {
      "bench_e2e", "--child", std::to_string(Fds[1]), "--workload", S.Workload,
      "--seed",    std::to_string(S.Seed), "--round", std::to_string(S.Round),
      "--slice",   vault::json::num(S.SliceS), "--scratch", S.ScratchDir};
  if (S.Quick)
    Args.push_back("--quick");
  if (!S.TraceDir.empty())
    Args.insert(Args.end(), {"--trace", S.TraceDir});
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid < 0) {
    R.Error = std::string("fork: ") + std::strerror(errno);
    close(Fds[0]);
    close(Fds[1]);
    return R;
  }
  if (Pid == 0) {
    close(Fds[0]);
    execv("/proc/self/exe", Argv.data());
    _exit(127);
  }
  close(Fds[1]);
  std::string Data;
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = read(Fds[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Data.append(Buf, static_cast<size_t>(N));
  }
  close(Fds[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }

  std::optional<vault::json::Value> V;
  std::string Err = "no result";
  for (size_t At = 0; At + 5 <= Data.size();) {
    char Tag = Data[At];
    uint32_t Size;
    std::memcpy(&Size, Data.data() + At + 1, sizeof(Size));
    At += 5;
    if (At + Size > Data.size())
      break;
    if (Tag == 'L') {
      size_t Old = R.LatMs.size();
      R.LatMs.resize(Old + Size / sizeof(double));
      std::memcpy(R.LatMs.data() + Old, Data.data() + At, Size);
    } else if (Tag == 'J') {
      V = vault::json::parseJson(std::string_view(Data).substr(At, Size), &Err);
    }
    At += Size;
  }
  if (!V || !V->isObject() || !WIFEXITED(Status) || WEXITSTATUS(Status)) {
    const vault::json::Value *E = V ? V->find("error") : nullptr;
    R.Error = S.Workload + ": " +
              (E ? E->Str
                 : "child exited with status " + std::to_string(Status) +
                       " (" + Err + ")");
    return R;
  }
  auto Num = [&](const char *K) {
    const vault::json::Value *X = V->find(K);
    return X ? X->Num : 0.0;
  };
  R.SetupS = Num("setup_s");
  R.PeakRssMb = Num("peak_rss_mb");
  R.Attempted = static_cast<uint64_t>(Num("attempted"));
  R.Failed = static_cast<uint64_t>(Num("failed"));
  R.TracedItems = static_cast<uint64_t>(Num("traced_items"));
  if (const vault::json::Value *F = V->find("first_failure"))
    R.FirstFailure = F->Str;
  if (const vault::json::Value *F = V->find("trace_file"))
    R.TraceFile = F->Str;
  if (const vault::json::Value *L = V->find("layers"))
    for (const vault::json::Value &X : L->Elems)
      R.Layers.emplace_back(X.Elems[0].Str, X.Elems[1].Num, X.Elems[2].Str);
  return R;
}

//===----------------------------------------------------------------------===//
// The parent: rounds, metrics and the result file
//===----------------------------------------------------------------------===//

struct WorkloadRun {
  std::vector<ChildResult> Rounds;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string FirstFailure;
  std::optional<ChildResult> Traced;

  void add(const ChildResult &C) {
    Attempted += C.Attempted;
    Failed += C.Failed;
    if (FirstFailure.empty())
      FirstFailure = C.FirstFailure;
  }
};

struct Metric {
  const char *Name;
  double Value;
  const char *Unit;
};

/// A window closes once it holds this much item time and this many
/// items; see endToEnd().
constexpr double WindowMs = 100;
constexpr size_t WindowItems = 8;

/// The share of windows, from the fast end, whose value is reported.
constexpr double FastWindowPct = 5;

/// Cuts each round's latencies into consecutive windows and appends
/// each window's median latency to \p P50 and its items per second on
/// the items' clocks to \p Rate. A remainder too short to close a
/// window joins the round's last one.
void windowStats(const std::vector<double> &LatMs, std::vector<double> &P50,
                 std::vector<double> &Rate) {
  std::vector<std::vector<double>> Windows(1);
  double Ms = 0;
  for (double X : LatMs) {
    if (Ms >= WindowMs && Windows.back().size() >= WindowItems) {
      Windows.emplace_back();
      Ms = 0;
    }
    Windows.back().push_back(X);
    Ms += X;
  }
  if (Windows.size() > 1 &&
      (Ms < WindowMs || Windows.back().size() < WindowItems)) {
    std::vector<double> Tail = std::move(Windows.back());
    Windows.pop_back();
    Windows.back().insert(Windows.back().end(), Tail.begin(), Tail.end());
  }
  for (const std::vector<double> &W : Windows) {
    if (W.empty())
      continue;
    double Sum = 0;
    for (double X : W)
      Sum += X;
    P50.push_back(percentile(W, 50));
    Rate.push_back(W.size() * 1e3 / Sum);
  }
}

/// The shared host has slow phases of a tenth of a second to minutes in
/// which the same item takes up to 1.5 times as long. Throughput and
/// p50 are therefore read from the run's fast windows: every round is
/// cut into windows of about 100 ms, and the metric is the window value
/// FastWindowPct percent from the fast end (the 5th percentile of the
/// window medians, the 95th of the window throughputs). That tracks the
/// code's speed whenever a twentieth of the run saw a quiet host, where
/// a mean over the run tracks how much of it was slow. p99 pools every
/// item, and set-up and peak RSS are medians over the rounds.
std::vector<Metric> endToEnd(const WorkloadRun &R) {
  std::vector<double> P50, Rate, Setup, Rss, All;
  for (const ChildResult &C : R.Rounds) {
    All.insert(All.end(), C.LatMs.begin(), C.LatMs.end());
    windowStats(C.LatMs, P50, Rate);
    Setup.push_back(C.SetupS);
    Rss.push_back(C.PeakRssMb);
  }
  return {
      {"throughput", percentile(Rate, 100 - FastWindowPct), "items/s"},
      {"latency_p50_ms", percentile(P50, FastWindowPct), "ms"},
      {"latency_p99_ms", percentile(All, 99), "ms"},
      {"setup_s", median(Setup), "s"},
      {"peak_rss_mb", median(Rss), "MB"},
      {"error_ratio",
       R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0,
       "ratio"},
  };
}

int runBenchmark(const Options &O) {
  std::vector<ChildSpec> Specs;
  for (const std::string &W : O.Workloads) {
    ChildSpec S;
    S.Workload = W;
    S.Seed = O.Seed;
    S.Quick = O.Quick;
    S.SliceS = O.SliceS;
    S.ScratchDir = O.ScratchDir;
    Specs.push_back(S);
  }
  std::map<std::string, WorkloadRun> Runs;
  for (unsigned Round = 0; Round < O.Rounds; ++Round)
    for (size_t K = 0; K < Specs.size(); ++K) {
      ChildSpec S = Specs[(K + Round) % Specs.size()];
      S.Round = Round;
      ChildResult C = runChild(S);
      if (!C.Error.empty()) {
        std::fprintf(stderr, "bench_e2e: %s\n", C.Error.c_str());
        return 3;
      }
      Runs[S.Workload].add(C);
      Runs[S.Workload].Rounds.push_back(std::move(C));
    }
  if (!O.TraceDir.empty()) {
    fs::create_directories(O.TraceDir);
    for (ChildSpec S : Specs) {
      S.SliceS = O.TraceSliceS;
      S.TraceDir = O.TraceDir;
      ChildResult C = runChild(S);
      if (!C.Error.empty()) {
        std::fprintf(stderr, "bench_e2e: %s\n", C.Error.c_str());
        return 3;
      }
      Runs[S.Workload].add(C);
      Runs[S.Workload].Traced = std::move(C);
    }
  }

  const unsigned Cpus = std::max(1u, std::thread::hardware_concurrency());
  std::string Json = "{\"seed\": " + std::to_string(O.Seed) +
                     ", \"cpus\": " + std::to_string(Cpus) +
                     ", \"jobs\": " + std::to_string(BenchJobs) +
                     ", \"rounds\": " + std::to_string(O.Rounds) +
                     ", \"slice_s\": " + vault::json::num(O.SliceS) +
                     ", \"warmup_s\": " +
                     vault::json::num(O.Quick ? QuickWarmupS : WarmupS) +
                     ", \"trace_slice_s\": " +
                     (O.TraceDir.empty() ? "null"
                                         : vault::json::num(O.TraceSliceS)) +
                     ", \"workloads\": {";
  uint64_t Failed = 0;
  for (size_t K = 0; K < O.Workloads.size(); ++K) {
    const std::string &W = O.Workloads[K];
    WorkloadRun &R = Runs[W];
    size_t Samples = 0;
    for (const ChildResult &C : R.Rounds)
      Samples += C.LatMs.size();
    Failed += R.Failed;
    std::printf("== %s (closed loop, 1 client): %zu samples, %llu attempted, "
                "%llu failed\n",
                W.c_str(), Samples,
                static_cast<unsigned long long>(R.Attempted),
                static_cast<unsigned long long>(R.Failed));
    if (R.Failed)
      std::fprintf(stderr, "bench_e2e: %s: first failure: %s\n", W.c_str(),
                   R.FirstFailure.c_str());
    if (O.Rounds && !O.Quick && Samples < 1000)
      std::fprintf(stderr,
                   "bench_e2e: %s: only %zu samples; p99 needs 1000\n",
                   W.c_str(), Samples);
    Json += std::string(K ? ", " : "") + vault::json::str(W) +
            ": {\"loop\": \"closed\", \"clients\": 1, \"item\": " +
            vault::json::str(makeWorkload(W)->item()) +
            ", \"samples\": " + std::to_string(Samples) +
            ", \"attempted\": " + std::to_string(R.Attempted) +
            ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {";
    if (O.Rounds) {
      bool First = true;
      for (const Metric &M : endToEnd(R)) {
        std::printf("   %-40s %.6g %s\n", M.Name, M.Value, M.Unit);
        Json += std::string(First ? "" : ", ") + vault::json::str(M.Name) +
                ": {\"value\": " + vault::json::num(M.Value) +
                ", \"unit\": " + vault::json::str(M.Unit) + "}";
        First = false;
      }
    }
    Json += "}, \"rounds\": [";
    for (size_t I = 0; I < R.Rounds.size(); ++I)
      Json += std::string(I ? ", " : "") +
              "{\"setup_s\": " + vault::json::num(R.Rounds[I].SetupS) +
              ", \"peak_rss_mb\": " + vault::json::num(R.Rounds[I].PeakRssMb) +
              ", \"samples\": " + std::to_string(R.Rounds[I].LatMs.size()) +
              "}";
    Json += "]";
    if (R.Traced) {
      Json += ", \"trace_file\": " + vault::json::str(R.Traced->TraceFile) +
              ", \"traced_items\": " + std::to_string(R.Traced->TracedItems) +
              ", \"layers\": {";
      bool First = true;
      for (const auto &[Name, Value, Unit] : R.Traced->Layers) {
        std::string Full = W + "." + Name;
        std::printf("   %-40s %.6g %s\n", Full.c_str(), Value, Unit.c_str());
        Json += std::string(First ? "" : ", ") + vault::json::str(Full) +
                ": {\"value\": " + vault::json::num(Value) +
                ", \"unit\": " + vault::json::str(Unit) + "}";
        First = false;
      }
      Json += "}";
    }
    Json += "}";
  }
  Json += "}}";

  if (!O.OutPath.empty()) {
    std::string Err;
    if (!appendRun(O.OutPath, Json, Err)) {
      std::fprintf(stderr, "bench_e2e: %s\n", Err.c_str());
      return 3;
    }
  }
  return Failed ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// The deterministic counter pass
//===----------------------------------------------------------------------===//

/// Counters that are not pinned: the check response embeds wall-time
/// histograms, so its length varies, and the worker count is a setting
/// rather than work.
bool pinned(const std::string &Name) {
  return Name != "server.bytes_out" && Name != "sema.jobs_used";
}

/// One counter pass of workload \p Name; Jobs 0 keeps its default.
/// Returns nullopt when the workload has no job setting.
std::optional<std::map<std::string, uint64_t>>
counterPass(const std::string &Name, const Options &O, unsigned Jobs) {
  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (Jobs && !W->setJobs(Jobs))
    return std::nullopt;
  std::string Scratch = O.ScratchDir + "/counters-" + Name;
  fs::create_directories(Scratch);
  W->setup(O.Seed, Scratch);
  Probe P;
  for (unsigned I = 0; I < W->passItems(); ++I) {
    ItemOutcome Out = W->runItem(I, nullptr, &P);
    if (!Out.Ok)
      throw std::runtime_error(Name + ": " + Out.Failure);
  }
  std::error_code EC;
  fs::remove_all(Scratch, EC);
  std::map<std::string, uint64_t> C;
  for (const auto &[K, V] : P.Counts)
    if (pinned(K))
      C[K] = V;
  C["items"] = W->passItems();
  return C;
}

std::string renderCounters(
    uint64_t Seed,
    const std::vector<std::pair<std::string, std::map<std::string, uint64_t>>>
        &All) {
  std::string Out = "{\n  \"seed\": " + std::to_string(Seed) +
                    ",\n  \"jobs\": " + std::to_string(BenchJobs) +
                    ",\n  \"workloads\": {";
  for (size_t I = 0; I < All.size(); ++I) {
    Out += std::string(I ? "," : "") + "\n    " +
           vault::json::str(All[I].first) + ": {";
    bool First = true;
    for (const auto &[K, V] : All[I].second) {
      Out += std::string(First ? "" : ",") + "\n      " + vault::json::str(K) +
             ": " + std::to_string(V);
      First = false;
    }
    Out += "\n    }";
  }
  return Out + "\n  }\n}\n";
}

int runCounters(const Options &O, const std::string &OutPath,
                const std::string &CheckPath) {
  std::vector<std::pair<std::string, std::map<std::string, uint64_t>>> All;
  for (const std::string &W : O.Workloads)
    All.emplace_back(W, *counterPass(W, O, 0));
  std::string Text = renderCounters(O.Seed, All);
  if (!OutPath.empty()) {
    std::ofstream(OutPath, std::ios::binary | std::ios::trunc) << Text;
    return 0;
  }

  std::ifstream In(CheckPath, std::ios::binary);
  std::string Pinned((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
  int Status = 0;
  auto Mismatch = [&](const std::string &What) {
    std::fprintf(stderr, "bench_e2e: counters: %s\n", What.c_str());
    Status = 1;
  };
  if (Pinned != Text)
    Mismatch("the pass differs from " + CheckPath + ":\n" + Text);
  for (const auto &[W, First] : All) {
    if (*counterPass(W, O, 0) != First)
      Mismatch(W + ": a second pass differs from the first");
    for (unsigned Jobs : {1u, BenchJobs}) {
      std::optional<std::map<std::string, uint64_t>> C =
          counterPass(W, O, Jobs);
      if (C && *C != First)
        Mismatch(W + ": the pass at jobs " + std::to_string(Jobs) +
                 " differs from the default");
    }
  }
  if (!Status)
    std::printf("bench_e2e: counters match %s, repeat, and hold at jobs 1 "
                "and %u\n",
                CheckPath.c_str(), BenchJobs);
  return Status;
}

bool parseNumber(const char *Flag, const std::string &Val, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Val.c_str(), &End);
  if (Val.empty() || *End || Out < 0) {
    std::fprintf(stderr, "bench_e2e: invalid %s value '%s'\n", Flag,
                 Val.c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string CountersOut, CheckCounters;
  std::vector<std::string> Compare;
  bool RoundsSet = false;
  int ChildFd = -1;
  unsigned ChildRound = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "bench_e2e: %s requires an argument\n", A.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    double D = 0;
    if (A == "--seed") {
      if (!parseNumber("--seed", Value(), D))
        return 2;
      O.Seed = static_cast<uint64_t>(D);
    } else if (A == "--workload") {
      std::string W = Value();
      if (!makeWorkload(W)) {
        std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n", W.c_str());
        return 2;
      }
      O.Workloads.push_back(W);
    } else if (A == "--rounds") {
      if (!parseNumber("--rounds", Value(), D))
        return 2;
      O.Rounds = static_cast<unsigned>(D);
      RoundsSet = true;
    } else if (A == "--slice") {
      if (!parseNumber("--slice", Value(), O.SliceS))
        return 2;
    } else if (A == "--trace") {
      O.TraceDir = Value();
    } else if (A == "--trace-slice") {
      if (!parseNumber("--trace-slice", Value(), O.TraceSliceS))
        return 2;
    } else if (A == "--quick") {
      O.Quick = true;
    } else if (A == "--out") {
      O.OutPath = Value();
    } else if (A == "--scratch") {
      O.ScratchDir = Value();
    } else if (A == "--compare") {
      while (I + 1 < Argc && std::string(Argv[I + 1]).rfind("--", 0) != 0)
        Compare.push_back(Argv[++I]);
    } else if (A == "--counters-out") {
      CountersOut = Value();
    } else if (A == "--check-counters") {
      CheckCounters = Value();
    } else if (A == "--child") {
      if (!parseNumber("--child", Value(), D))
        return 2;
      ChildFd = static_cast<int>(D);
    } else if (A == "--round") {
      if (!parseNumber("--round", Value(), D))
        return 2;
      ChildRound = static_cast<unsigned>(D);
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }

  if (!Compare.empty()) {
    if (Compare.size() < 2) {
      std::fprintf(stderr, "bench_e2e: --compare needs two or more files\n");
      return 2;
    }
    return compareRuns(E2E_BENCHMARK_JSON, Compare[0],
                       std::vector<std::string>(Compare.begin() + 1,
                                                Compare.end()));
  }
  if (ChildFd >= 0) {
    ChildSpec S;
    S.Workload = O.Workloads.empty() ? "" : O.Workloads[0];
    S.Seed = O.Seed;
    S.Round = ChildRound;
    S.Quick = O.Quick;
    S.SliceS = O.SliceS;
    S.TraceDir = O.TraceDir;
    S.ScratchDir = O.ScratchDir;
    try {
      childRun(S, ChildFd);
      return 0;
    } catch (const std::exception &E) {
      std::string Msg = "{\"error\": " + vault::json::str(E.what()) + "}";
      try {
        writeFrame(ChildFd, 'J', Msg.data(), static_cast<uint32_t>(Msg.size()));
      } catch (const std::exception &) {
        // The parent reports a child that exits without a result.
      }
      return 1;
    }
  }
  if (O.Workloads.empty())
    O.Workloads = workloadNames();
  if (O.ScratchDir.empty())
    O.ScratchDir = (fs::read_symlink("/proc/self/exe").parent_path() /
                    "scratch")
                       .string();
  if (O.Quick) {
    O.Rounds = RoundsSet ? O.Rounds : 1;
    O.SliceS = O.TraceSliceS = 0.2;
  }
  if (O.Rounds == 0 && O.TraceDir.empty()) {
    std::fprintf(stderr, "bench_e2e: --rounds 0 needs --trace\n");
    return 2;
  }
  try {
    if (!CountersOut.empty() || !CheckCounters.empty())
      return runCounters(O, CountersOut, CheckCounters);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "bench_e2e: %s\n", E.what());
    return 3;
  }
  return runBenchmark(O);
}
