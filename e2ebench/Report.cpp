//===- Report.cpp ---------------------------------------------------------===//

#include "Report.h"

#include "support/JsonParse.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

using namespace vault;

namespace e2e {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::vector<double> quartiles(std::vector<double> V) {
  if (V.size() < 2)
    return std::vector<double>(3, V.empty() ? 0 : V[0]);
  std::sort(V.begin(), V.end());
  const long N = 4, LD = static_cast<long>(V.size()), M = LD + 1;
  std::vector<double> Q;
  for (long I = 1; I < N; ++I) {
    long J = std::clamp(I * M / N, 1L, LD - 1);
    long Delta = I * M - J * N;
    Q.push_back((V[J - 1] * (N - Delta) + V[J] * Delta) / N);
  }
  return Q;
}

double percentile(std::vector<double> V, double Pct) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Pct / 100 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

namespace {

constexpr const char *Schema = "vault-e2e-v1";

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream O;
  O << In.rdbuf();
  return O.str();
}

std::optional<json::Value> readJson(const std::string &Path,
                                    std::string &Err) {
  std::string Text = readFile(Path);
  if (Text.empty()) {
    Err = "cannot read " + Path;
    return std::nullopt;
  }
  json::ParseLimits Limits;
  Limits.MaxBytes = 256u << 20;
  std::optional<json::Value> V = json::parseJson(Text, &Err, Limits);
  if (!V)
    Err = Path + ": " + Err;
  return V;
}

const json::Value *runsOf(const json::Value &Doc) {
  const json::Value *S = Doc.find("schema");
  const json::Value *Runs = Doc.find("runs");
  if (!S || S->Str != Schema || !Runs || !Runs->isArray())
    return nullptr;
  return Runs;
}

/// One end-to-end metric's comparison rule.
struct Rule {
  std::string Name;
  bool HigherIsBetter = false;
  double Bound = 0;
};

/// Values of \p Metric for \p Workload, one per run that has it.
std::vector<double> valuesOf(const json::Value &Runs,
                             const std::string &Workload,
                             const std::string &Metric) {
  std::vector<double> Out;
  for (const json::Value &Run : Runs.Elems) {
    const json::Value *W = Run.find("workloads");
    const json::Value *Entry = W ? W->find(Workload) : nullptr;
    const json::Value *Ms = Entry ? Entry->find("metrics") : nullptr;
    const json::Value *M = Ms ? Ms->find(Metric) : nullptr;
    const json::Value *V = M ? M->find("value") : nullptr;
    if (V && V->isNumber())
      Out.push_back(V->Num);
  }
  return Out;
}

/// A worsening of setup time below this many seconds is never a
/// regression: process-level jitter on a shared machine reaches it.
constexpr double SetupFloorS = 0.020;

/// Applies the choosing-metrics rules to one row: worse when the
/// median moved the wrong way by more than the bound; unresolved when
/// either side's own spread exceeds the bound (unless every run of B
/// beats every run of A); better, given ten or more runs a side, when B
/// wins nine tenths of all run pairs and the medians differ by more
/// than A's quartile distance, whatever the spreads.
std::string verdict(const Rule &R, const std::vector<double> &A,
                    const std::vector<double> &B) {
  if (A.empty() || B.empty())
    return "unresolved";
  auto Better = [&](double X, double Y) {
    return R.HigherIsBetter ? X > Y : X < Y;
  };
  double MA = median(A), MB = median(B);
  std::vector<double> QA = quartiles(A), QB = quartiles(B);
  double Allowed = R.Bound * std::fabs(MA);
  if (R.Name == "setup_s")
    Allowed = std::max(Allowed, SetupFloorS);
  unsigned Wins = 0;
  bool AllBetter = true;
  for (double Y : B)
    for (double X : A) {
      Wins += Better(Y, X);
      AllBetter = AllBetter && Better(Y, X);
    }
  double Worsening = R.HigherIsBetter ? MA - MB : MB - MA;
  const bool Gain = A.size() >= 10 && B.size() >= 10 &&
                    Wins >= 0.9 * A.size() * B.size() &&
                    -Worsening > QA[2] - QA[0];
  if (QA[2] - QA[0] > Allowed || QB[2] - QB[0] > Allowed)
    return !AllBetter ? "unresolved" : Gain ? "better" : "within";
  if (Worsening > Allowed)
    return "worse";
  return Gain ? "better" : "within";
}

} // namespace

bool appendRun(const std::string &Path, const std::string &RunJson,
               std::string &Err) {
  std::string Old = readFile(Path);
  std::string Out;
  if (Old.empty()) {
    Out = std::string("{\"schema\": \"") + Schema + "\", \"runs\": [\n" +
          RunJson + "\n]}\n";
  } else {
    std::optional<json::Value> Doc = readJson(Path, Err);
    if (!Doc || !runsOf(*Doc)) {
      Err = "refusing to append to " + Path + ": not a " + Schema + " file";
      return false;
    }
    size_t Close = Old.rfind("\n]}");
    if (Close == std::string::npos) {
      Err = "cannot find the runs array in " + Path;
      return false;
    }
    Out = Old.substr(0, Close) + ",\n" + RunJson + Old.substr(Close);
  }
  std::ofstream O(Path, std::ios::binary | std::ios::trunc);
  O << Out;
  if (!O.flush()) {
    Err = "cannot write " + Path;
    return false;
  }
  return true;
}

int compareRuns(const std::string &BenchmarkJson, const std::string &Base,
                const std::vector<std::string> &Others) {
  std::string Err;
  std::optional<json::Value> Bench = readJson(BenchmarkJson, Err);
  const json::Value *E2E = Bench ? Bench->find("end_to_end") : nullptr;
  if (!E2E || !E2E->isArray()) {
    std::fprintf(stderr, "bench_e2e: %s\n",
                 Err.empty() ? "BENCHMARK.json has no end_to_end list"
                             : Err.c_str());
    return 2;
  }
  std::vector<Rule> Rules;
  for (const json::Value &M : E2E->Elems) {
    const json::Value *Name = M.find("name");
    const json::Value *Better = M.find("better");
    const json::Value *Bound = M.find("bound");
    if (!Name || !Better || !Bound) {
      std::fprintf(stderr, "bench_e2e: malformed end_to_end entry\n");
      return 2;
    }
    Rules.push_back({Name->Str, Better->Str == "higher", Bound->Num});
  }
  // Failures may not rise at all. BENCHMARK.json lists only metrics
  // that are never 0, so error_ratio's rule lives here.
  Rules.push_back({"error_ratio", false, 0});

  std::optional<json::Value> BaseDoc = readJson(Base, Err);
  if (!BaseDoc || !runsOf(*BaseDoc)) {
    std::fprintf(stderr, "bench_e2e: %s\n",
                 Err.empty() ? (Base + ": not a result file").c_str()
                             : Err.c_str());
    return 2;
  }
  const json::Value &BaseRuns = *runsOf(*BaseDoc);
  std::vector<std::string> Workloads;
  for (const json::Value &Run : BaseRuns.Elems)
    if (const json::Value *W = Run.find("workloads"))
      for (const auto &[Name, _] : W->Members)
        if (std::find(Workloads.begin(), Workloads.end(), Name) ==
            Workloads.end())
          Workloads.push_back(Name);

  int Status = 0;
  for (const std::string &Other : Others) {
    std::optional<json::Value> Doc = readJson(Other, Err);
    if (!Doc || !runsOf(*Doc)) {
      std::fprintf(stderr, "bench_e2e: %s\n",
                   Err.empty() ? (Other + ": not a result file").c_str()
                               : Err.c_str());
      return 2;
    }
    const json::Value &Runs = *runsOf(*Doc);
    std::printf("compare %s (%zu run(s)) -> %s (%zu run(s))\n", Base.c_str(),
                BaseRuns.Elems.size(), Other.c_str(), Runs.Elems.size());
    std::printf("%-16s %-15s %31s %31s %8s %6s  %s\n", "workload", "metric",
                "A median [q1, q3]", "B median [q1, q3]", "change", "bound",
                "verdict");
    for (const std::string &W : Workloads)
      for (const Rule &R : Rules) {
        std::vector<double> A = valuesOf(BaseRuns, W, R.Name);
        std::vector<double> B = valuesOf(Runs, W, R.Name);
        std::string V = verdict(R, A, B);
        if (V == "worse" || V == "unresolved")
          Status = 1;
        auto Cell = [](const std::vector<double> &X) {
          if (X.empty())
            return std::string("-");
          std::vector<double> Q = quartiles(X);
          char Buf[96];
          std::snprintf(Buf, sizeof(Buf), "%.4g [%.4g, %.4g]", median(X),
                        Q[0], Q[2]);
          return std::string(Buf);
        };
        double MA = median(A), MB = median(B);
        char Change[32] = "-";
        if (!A.empty() && !B.empty() && MA != 0)
          std::snprintf(Change, sizeof(Change), "%+.1f%%",
                        100 * (MB - MA) / std::fabs(MA));
        char BoundBuf[32];
        std::snprintf(BoundBuf, sizeof(BoundBuf), "%.0f%%", 100 * R.Bound);
        std::printf("%-16s %-15s %31s %31s %8s %6s  %s\n", W.c_str(),
                    R.Name.c_str(), Cell(A).c_str(), Cell(B).c_str(), Change,
                    BoundBuf, V.c_str());
      }
  }
  return Status;
}

} // namespace e2e
