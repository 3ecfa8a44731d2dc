//===- Workloads.cpp ------------------------------------------------------===//

#include "Workloads.h"

#include "Synth.h"

#include "corpus/Corpus.h"
#include "fuzz/Campaign.h"
#include "interp/Interp.h"
#include "lexer/Lexer.h"
#include "server/Server.h"
#include "support/DiagnosticsFormat.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/Trace.h"
#include "vm/VM.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <stdexcept>

using namespace vault;

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// 0..N-1 in a seeded order.
std::vector<size_t> shuffled(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  fuzz::Rng R(Seed * 0xA24BAED4963EE407ull + 0x9FB21C651E98DF25ull);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

/// Lexes one input buffer standalone: the parser pulls the lexer
/// through, so its cost is otherwise invisible inside "parse" spans.
void lexProbe(const std::string &Name, const std::string &Text, Probe &P) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer(Name, Text);
  DiagnosticEngine Diags(SM);
  Lexer L(SM, Id, Diags);
  auto T0 = Clock::now();
  size_t Tokens = L.lexAll().size();
  P.LexUs += secondsSince(T0) * 1e6;
  P.Counts["lexer.tokens"] += Tokens;
}

/// Folds a check's metrics registry into the probe under the
/// benchmark's layer names.
void addCheckCounters(const std::map<std::string, uint64_t, std::less<>> &M,
                      Probe &P) {
  static const std::pair<const char *, const char *> Names[] = {
      {"flow.fixpoint_iterations", "sema.flow.fixpoint_iterations"},
      {"flow.keyset_ops", "sema.flow.keyset_ops"},
      {"flow.joins", "sema.flow.joins"},
      {"flow.join_renamed_keys", "sema.flow.join_renamed_keys"},
      {"check.functions_checked", "sema.functions_checked"},
      {"check.flow_checks_run", "sema.flow_checks_run"},
      {"check.jobs_used", "sema.jobs_used"},
      {"keys.allocated", "types.keys_allocated"},
      {"types.arena_bytes", "types.arena_bytes"},
      {"cache.hits", "sema.cache_hits"},
      {"cache.misses", "sema.cache_misses"},
  };
  for (const auto &[From, To] : Names)
    if (auto It = M.find(From); It != M.end())
      P.Counts[To] += It->second;
}

std::vector<LayerMetric> checkerLayers() {
  return {{"lexer.us", "us"},
          {"lexer.tokens", "count"},
          {"parser.us", "us"},
          {"parser.buffers", "count"},
          {"sema.register.us", "us"},
          {"sema.elab.us", "us"},
          {"sema.flow.us", "us"},
          {"sema.merge.us", "us"},
          {"sema.check_self.us", "us"},
          {"sema.flow.fixpoint_iterations", "count"},
          {"sema.flow.keyset_ops", "count"},
          {"sema.flow.joins", "count"},
          {"sema.flow.join_renamed_keys", "count"},
          {"sema.functions_checked", "count"},
          {"sema.flow_checks_run", "count"},
          {"sema.jobs_used", "count"},
          {"types.keys_allocated", "count"},
          {"types.arena_bytes", "bytes"}};
}

const LayerMetric OverheadMetric{"bench.trace_overhead_pct", "%"};

/// Destroys the compiler on the item's clock: teardown is part of what
/// a one-shot check costs, and it is charged to the check's own layer.
double timedReset(std::unique_ptr<VaultCompiler> &C, Tracer *T) {
  auto T0 = Clock::now();
  {
    TraceSpan Span(T, "sema.check_self");
    C.reset();
  }
  return secondsSince(T0);
}

//===----------------------------------------------------------------------===//
// corpus-cold
//===----------------------------------------------------------------------===//

/// Every corpus program, one cold compilation each, rendered as text
/// and JSON — what `vaultc` does per file. Tiny units: the fixed
/// per-compilation costs dominate.
class CorpusCold : public Workload {
public:
  const char *item() const override {
    return "one corpus program: fresh compiler at jobs 4, queueSource, "
           "check, render text and JSON";
  }

  void setup(uint64_t Seed, const std::string &) override {
    auto T0 = Clock::now();
    for (const corpus::ProgramInfo &P : corpus::index()) {
      std::vector<std::string> Missing;
      std::string Text = corpus::load(P.Name, &Missing);
      if (Text.empty() || !Missing.empty())
        throw std::runtime_error("cannot load corpus program " + P.Name);
      Programs.push_back({&P, std::move(Text)});
    }
    LoadUs = secondsSince(T0) * 1e6;
    Order = shuffled(Programs.size(), Seed);
  }

  ItemOutcome runItem(uint64_t I, Tracer *T, Probe *P) override {
    const Program &Prog = Programs[Order[I % Order.size()]];
    ItemOutcome Out;
    auto T0 = Clock::now();
    std::unique_ptr<VaultCompiler> C;
    bool Accepted;
    std::string Text, Json;
    {
      TraceSpan Span(T, "sema.check_self");
      C = std::make_unique<VaultCompiler>();
      C->setJobs(Jobs);
      C->setTracer(T);
      C->queueSource(Prog.Info->Name + ".vlt", Prog.Text);
      Accepted = C->check();
    }
    {
      TraceSpan Span(T, "support.render_text");
      Text = C->diags().render();
    }
    {
      TraceSpan Span(T, "support.render_json");
      Json = renderDiagnosticsJson(C->diags());
    }
    Out.Seconds = secondsSince(T0);

    if (Accepted != Prog.Info->ExpectAccept)
      Out.Failure = Prog.Info->Name + ": verdict differs from the index";
    for (DiagId Id : Prog.Info->MustReport)
      if (!C->diags().has(Id) ||
          Json.find(std::string("\"") + diagName(Id) + "\"") ==
              std::string::npos)
        Out.Failure = Prog.Info->Name + ": missing " + diagName(Id);
    if (P) {
      addCheckCounters(C->metrics().counters(), *P);
      P->Counts["parser.buffers"] += C->sources().numBuffers();
      P->Counts["support.diagnostics"] += C->diags().size();
      P->Counts["support.rendered_bytes"] += Text.size() + Json.size();
      lexProbe(Prog.Info->Name, Prog.Text, *P);
    }
    Out.Seconds += timedReset(C, T);
    Out.Ok = Out.Failure.empty();
    return Out;
  }

  unsigned passItems() const override {
    return static_cast<unsigned>(Programs.size());
  }

  std::map<std::string, double> setupLayers() const override {
    return {{"corpus.load.us", LoadUs}};
  }

  std::vector<LayerMetric> layers() const override {
    std::vector<LayerMetric> L = checkerLayers();
    L.insert(L.end(), {{"support.render_text.us", "us"},
                       {"support.render_json.us", "us"},
                       {"support.diagnostics", "count"},
                       {"support.rendered_bytes", "bytes"},
                       {"corpus.load.us", "us"},
                       OverheadMetric});
    return L;
  }

  bool setJobs(unsigned N) override {
    Jobs = N;
    return true;
  }

private:
  struct Program {
    const corpus::ProgramInfo *Info;
    std::string Text;
  };
  std::vector<Program> Programs;
  std::vector<size_t> Order;
  double LoadUs = 0;
  unsigned Jobs = BenchJobs;
};

//===----------------------------------------------------------------------===//
// unit-large-cold
//===----------------------------------------------------------------------===//

/// Checks \p C's error diagnostics against the unit's ground truth:
/// the same (function, DiagId) multiset. Returns "" when they agree.
std::string compareWithGroundTruth(const SynthUnit &U, VaultCompiler &C) {
  std::vector<std::pair<int, DiagId>> Want, Got;
  for (size_t F = 0; F < U.Functions.size(); ++F)
    for (DiagId Id : U.Functions[F].Expect)
      Want.emplace_back(static_cast<int>(F), Id);
  std::map<std::string, unsigned> BufferIndex;
  for (size_t B = 0; B < U.Buffers.size(); ++B)
    BufferIndex[U.Buffers[B].first] = static_cast<unsigned>(B);
  for (const Diagnostic &D : C.diags().diagnostics()) {
    if (D.Severity != DiagSeverity::Error)
      continue;
    PresumedLoc L = C.sources().presumed(D.Loc);
    auto It = BufferIndex.find(L.BufferName);
    int F = It == BufferIndex.end() ? -1 : U.functionAt(It->second, L.Line);
    Got.emplace_back(F, D.Id);
  }
  std::sort(Want.begin(), Want.end());
  std::sort(Got.begin(), Got.end());
  if (Want == Got)
    return "";
  return "diagnostics differ from the generator's ground truth (" +
         std::to_string(Got.size()) + " errors, expected " +
         std::to_string(Want.size()) + ")";
}

/// One large seeded unit, cold-checked whole at jobs 4: parse and flow
/// checking do almost all the work, over enough tasks to use the
/// parallel passes.
class UnitLargeCold : public Workload {
public:
  const char *item() const override {
    return "one cold check of a 512-function, 16-buffer unit at jobs 4";
  }

  void setup(uint64_t Seed, const std::string &) override {
    U = makeUnit(Seed, 512, 16);
  }

  ItemOutcome runItem(uint64_t, Tracer *T, Probe *P) override {
    ItemOutcome Out;
    auto T0 = Clock::now();
    std::unique_ptr<VaultCompiler> C;
    bool Accepted;
    {
      TraceSpan Span(T, "sema.check_self");
      C = std::make_unique<VaultCompiler>();
      C->setJobs(Jobs);
      C->setTracer(T);
      for (const auto &[Name, Text] : U.Buffers)
        C->queueSource(Name, Text);
      Accepted = C->check();
    }
    Out.Seconds = secondsSince(T0);

    Out.Failure = compareWithGroundTruth(U, *C);
    if (Accepted)
      Out.Failure = "unit with seeded defects was accepted";
    if (P) {
      addCheckCounters(C->metrics().counters(), *P);
      P->Counts["parser.buffers"] += C->sources().numBuffers();
      for (const auto &[Name, Text] : U.Buffers)
        lexProbe(Name, Text, *P);
    }
    Out.Seconds += timedReset(C, T);
    Out.Ok = Out.Failure.empty();
    return Out;
  }

  unsigned passItems() const override { return 1; }

  std::vector<LayerMetric> layers() const override {
    std::vector<LayerMetric> L = checkerLayers();
    L.push_back(OverheadMetric);
    return L;
  }

  bool setJobs(unsigned N) override {
    Jobs = N;
    return true;
  }

private:
  SynthUnit U;
  unsigned Jobs = BenchJobs;
};

//===----------------------------------------------------------------------===//
// edit-warm
//===----------------------------------------------------------------------===//

/// The string member \p Key of the JSON-RPC result in \p Response, or
/// nullptr.
const json::Value *resultField(const json::Value &Response,
                               const char *Key) {
  const json::Value *R = Response.find("result");
  return R ? R->find(Key) : nullptr;
}

/// An in-process vaultd session with a warm memory cache: each item
/// edits one function (a body never sent before, same line count) and
/// re-checks, as an editor does on save.
class EditWarm : public Workload {
public:
  const char *item() const override {
    return "a change plus a check request through FrameReader and "
           "Workspace::handleFrame (256 functions, 8 buffers, jobs 1)";
  }

  void setup(uint64_t Seed, const std::string &) override {
    U = makeUnit(Seed, 256, 8);
    Current = U.Buffers;
    {
      VaultCompiler C;
      for (const auto &[Name, Text] : U.Buffers)
        C.queueSource(Name, Text);
      ExpectOk = C.check();
      Reference = renderDiagnosticsJson(C.diags());
    }
    Gate = std::make_unique<server::Admission>(Cfg.MaxQueue,
                                               Cfg.RequestTimeoutMs);
    openSession(nullptr);
    std::string Failure;
    json::Value R = request("{\"jsonrpc\": \"2.0\", \"id\": 0, "
                            "\"method\": \"check\"}\n",
                            nullptr);
    expectCheck(R, static_cast<double>(U.Functions.size()), 0, Failure);
    if (!Failure.empty())
      throw std::runtime_error("edit-warm initial check: " + Failure);
    Order = shuffled(U.Functions.size(), Seed);
  }

  ItemOutcome runItem(uint64_t I, Tracer *T, Probe *P) override {
    const SynthFunction &F = U.Functions[Order[I % Order.size()]];
    std::string &Text = Current[F.Buffer].second;
    setTag(Text, F.TagOffset, 100000001 + I);
    const std::string Id = std::to_string(2 * I + 1);
    const std::string ChangeLine =
        "{\"jsonrpc\": \"2.0\", \"id\": " + Id +
        ", \"method\": \"change\", \"params\": {\"name\": " +
        json::str(Current[F.Buffer].first) + ", \"text\": " + json::str(Text) +
        "}}\n";
    const std::string CheckLine = "{\"jsonrpc\": \"2.0\", \"id\": " +
                                  std::to_string(2 * I + 2) +
                                  ", \"method\": \"check\"}\n";

    ItemOutcome Out;
    auto T0 = Clock::now();
    std::string ChangeResp = exchange(ChangeLine, T);
    std::string CheckResp = exchange(CheckLine, T);
    Out.Seconds = secondsSince(T0);

    std::string Err;
    std::optional<json::Value> Change = json::parseJson(ChangeResp, &Err);
    if (!Change || !resultField(*Change, "changed"))
      Out.Failure = "change was not acknowledged: " + ChangeResp.substr(0, 200);
    json::ParseLimits Limits;
    Limits.MaxBytes = Cfg.MaxFrameBytes;
    std::optional<json::Value> Check =
        json::parseJson(CheckResp, &Err, Limits);
    if (!Check)
      Out.Failure = "check response is not JSON: " + Err;
    else
      expectCheck(*Check, 1, static_cast<double>(U.Functions.size() - 1),
                  Out.Failure);
    if (P && Check) {
      P->Counts["server.bytes_in"] += ChangeLine.size() + CheckLine.size();
      P->Counts["server.bytes_out"] += ChangeResp.size() + CheckResp.size();
      P->Counts["parser.buffers"] += Current.size();
      if (const json::Value *S = resultField(*Check, "stats"))
        if (auto Stats = json::parseJson(S->Str, &Err))
          if (const json::Value *Counters = Stats->find("counters")) {
            std::map<std::string, uint64_t, std::less<>> M;
            for (const auto &[K, V] : Counters->Members)
              M[K] = static_cast<uint64_t>(V.Num);
            addCheckCounters(M, *P);
          }
      for (const auto &[Name, Buf] : Current)
        lexProbe(Name, Buf, *P);
    }
    Out.Ok = Out.Failure.empty();
    return Out;
  }

  unsigned passItems() const override { return 8; }

  void attachTracer(Tracer *T) override { openSession(T); }

  std::vector<LayerMetric> layers() const override {
    return {{"lexer.us", "us"},
            {"lexer.tokens", "count"},
            {"parser.us", "us"},
            {"parser.buffers", "count"},
            {"sema.register.us", "us"},
            {"sema.elab.us", "us"},
            {"sema.fingerprint.us", "us"},
            {"sema.cache.us", "us"},
            {"sema.flow.us", "us"},
            {"sema.merge.us", "us"},
            {"sema.cache_hits", "count"},
            {"sema.cache_misses", "count"},
            {"sema.cache_hit_ratio", "ratio"},
            {"sema.flow_checks_run", "count"},
            {"sema.functions_checked", "count"},
            {"sema.flow.keyset_ops", "count"},
            {"server.frame.us", "us"},
            {"server.handle.us", "us"},
            {"server.check.us", "us"},
            {"server.bytes_in", "bytes"},
            {"server.bytes_out", "bytes"},
            OverheadMetric};
  }

  bool setJobs(unsigned N) override {
    Cfg.Jobs = N;
    return true;
  }

private:
  /// Feeds one request line through the frame reader into the session
  /// and returns the response line.
  std::string exchange(const std::string &Line, Tracer *T) {
    server::FrameReader::Frame F;
    {
      TraceSpan Span(T, "server.frame");
      Reader.feed(Line);
      F = Reader.next();
    }
    TraceSpan Span(T, "server.handle");
    return Ws->handleFrame(F);
  }

  json::Value request(const std::string &Line, Tracer *T) {
    std::string Resp = exchange(Line, T);
    std::string Err;
    json::ParseLimits Limits;
    Limits.MaxBytes = Cfg.MaxFrameBytes;
    std::optional<json::Value> V = json::parseJson(Resp, &Err, Limits);
    if (!V)
      throw std::runtime_error("edit-warm: bad response: " + Err);
    return *V;
  }

  /// A fresh session (telemetry as in vaultd: daemon metrics always,
  /// spans when \p T is set) that opens the current buffers; the warm
  /// store carries over, as it does across a daemon's connections.
  void openSession(Tracer *T) {
    Ws = std::make_unique<server::Workspace>(Cfg, *Gate, Store);
    server::Telemetry Tel;
    Tel.Metrics = &Metrics;
    Tel.Trc = T;
    Ws->setTelemetry(Tel);
    for (const auto &[Name, Text] : Current) {
      json::Value R = request(
          "{\"jsonrpc\": \"2.0\", \"id\": 0, \"method\": \"open\", "
          "\"params\": {\"name\": " +
              json::str(Name) + ", \"text\": " + json::str(Text) + "}}\n",
          T);
      if (!resultField(R, "opened"))
        throw std::runtime_error("edit-warm: open failed for " + Name);
    }
  }

  void expectCheck(const json::Value &R, double FlowChecks, double Hits,
                   std::string &Failure) {
    const json::Value *Diags = resultField(R, "diagnostics");
    const json::Value *Ok = resultField(R, "ok");
    const json::Value *Runs = resultField(R, "flowChecksRun");
    const json::Value *CacheHits = resultField(R, "cacheHits");
    if (!Diags || !Ok || !Runs || !CacheHits)
      Failure = "check response lacks result fields";
    else if (Diags->Str != Reference)
      Failure = "diagnostics differ from the cold one-shot reference";
    else if (Ok->B != ExpectOk)
      Failure = "verdict differs from the cold one-shot reference";
    else if (Runs->Num != FlowChecks || CacheHits->Num != Hits)
      Failure = "expected " + json::num(FlowChecks) + " flow check(s) and " +
                json::num(Hits) + " cache hit(s), got " + json::num(Runs->Num) +
                " and " + json::num(CacheHits->Num);
  }

  SynthUnit U;
  std::vector<std::pair<std::string, std::string>> Current;
  std::string Reference;
  bool ExpectOk = false;
  std::vector<size_t> Order;
  server::Config Cfg;
  std::unique_ptr<server::Admission> Gate;
  CheckMemoryStore Store;
  server::ServerMetrics Metrics;
  server::FrameReader Reader{Cfg.MaxFrameBytes};
  std::unique_ptr<server::Workspace> Ws;
};

//===----------------------------------------------------------------------===//
// run-dynamic
//===----------------------------------------------------------------------===//

/// Protocol violations plus end-of-run leaks, as the fuzz oracles and
/// the soundness suite count them.
unsigned detections(interp::Machine &M) {
  return M.totalViolations() +
         static_cast<unsigned>(M.regions().leakedRegions().size()) +
         static_cast<unsigned>(M.sockets().leakedSockets().size()) +
         static_cast<unsigned>(M.gdi().leakedDcs().size()) +
         static_cast<unsigned>(M.locks().leakedMutexes().size());
}

void countChunk(const vm::Chunk &Ch, Probe &P) {
  P.Counts["vm.chunks"] += 1;
  P.Counts["vm.insns"] += Ch.Code.size();
  for (const auto &Proto : Ch.Protos)
    countChunk(*Proto, P);
}

/// Every runnable corpus program plus three dispatch kernels, each run
/// on a fresh tree-walker and then a fresh VM (`--run --engine=both`).
/// No static checking: the time is machine construction, the value
/// substrate, dispatch and VM compilation.
class RunDynamic : public Workload {
public:
  const char *item() const override {
    return "one program on a fresh tree-walker, then a fresh VM";
  }

  void setup(uint64_t Seed, const std::string &) override {
    auto T0 = Clock::now();
    std::vector<std::pair<std::string, std::string>> Texts;
    std::vector<const corpus::ProgramInfo *> Infos;
    for (const corpus::ProgramInfo &P : corpus::index()) {
      if (!P.Runnable)
        continue;
      Texts.emplace_back(P.Name, corpus::load(P.Name));
      Infos.push_back(&P);
      if (Texts.back().second.empty())
        throw std::runtime_error("cannot load corpus program " + P.Name);
    }
    LoadUs = secondsSince(T0) * 1e6;
    for (const Kernel &K : makeKernels(Seed)) {
      Texts.emplace_back(K.Name, K.Text);
      Infos.push_back(nullptr);
    }
    for (size_t I = 0; I < Texts.size(); ++I) {
      Program P;
      P.Name = Texts[I].first;
      P.ExpectDyn = Infos[I] && Infos[I]->ExpectDynViolations;
      P.C = std::make_unique<VaultCompiler>();
      P.C->addSource(P.Name + ".vlt", Texts[I].second);
      bool Accepted = P.C->check();
      if (Accepted != (!Infos[I] || Infos[I]->ExpectAccept))
        throw std::runtime_error("run-dynamic: unexpected verdict for " +
                                 P.Name);
      for (const Decl *D : P.C->ast().program().Decls)
        if (const auto *F = dyn_cast<FuncDecl>(D); F && F->body())
          P.Functions.push_back(F);
      Programs.push_back(std::move(P));
    }
    Order = shuffled(Programs.size(), Seed);
  }

  ItemOutcome runItem(uint64_t I, Tracer *T, Probe *P) override {
    Program &Prog = Programs[Order[I % Order.size()]];
    ItemOutcome Out;
    auto T0 = Clock::now();
    std::unique_ptr<interp::Interp> W;
    std::unique_ptr<vm::Vm> V;
    bool WalkerRan, VmRan;
    {
      TraceSpan Span(T, "interp.run");
      W = std::make_unique<interp::Interp>(*Prog.C);
      WalkerRan = W->run("main");
    }
    {
      // Compiling every function up front, instead of on first call,
      // puts the compile cost in its own span.
      TraceSpan Span(T, "vm.compile");
      V = std::make_unique<vm::Vm>(*Prog.C);
      for (const FuncDecl *F : Prog.Functions)
        V->chunkFor(F);
    }
    {
      TraceSpan Span(T, "vm.run");
      VmRan = V->run("main");
    }
    Out.Seconds = secondsSince(T0);

    unsigned WDet = detections(*W), VDet = detections(*V);
    if (WalkerRan != VmRan || W->trapMessage() != V->trapMessage() ||
        W->output() != V->output() || W->violations() != V->violations() ||
        WDet != VDet)
      Out.Failure = Prog.Name + ": the engines disagree";
    else if ((WDet > 0) != Prog.ExpectDyn)
      Out.Failure = Prog.Name + ": dynamic violations differ from the index";
    if (P) {
      P->Counts["interp.violations"] += WDet;
      P->Counts["interp.output_lines"] += W->output().size();
      for (const FuncDecl *F : Prog.Functions)
        countChunk(*V->chunkFor(F), *P);
    }

    auto T1 = Clock::now();
    {
      TraceSpan Span(T, "interp.run");
      W.reset();
    }
    {
      TraceSpan Span(T, "vm.run");
      V.reset();
    }
    Out.Seconds += secondsSince(T1);
    Out.Ok = Out.Failure.empty();
    return Out;
  }

  unsigned passItems() const override {
    return static_cast<unsigned>(Programs.size());
  }

  std::map<std::string, double> setupLayers() const override {
    return {{"corpus.load.us", LoadUs}};
  }

  std::vector<LayerMetric> layers() const override {
    return {{"interp.run.us", "us"},    {"interp.violations", "count"},
            {"interp.output_lines", "count"},
            {"vm.compile.us", "us"},    {"vm.run.us", "us"},
            {"vm.chunks", "count"},     {"vm.insns", "count"},
            {"corpus.load.us", "us"},   OverheadMetric};
  }

private:
  struct Program {
    std::string Name;
    bool ExpectDyn = false;
    std::unique_ptr<VaultCompiler> C;
    std::vector<const FuncDecl *> Functions;
  };
  std::vector<Program> Programs;
  std::vector<size_t> Order;
  double LoadUs = 0;
};

//===----------------------------------------------------------------------===//
// fuzz-campaign
//===----------------------------------------------------------------------===//

/// A raw key number (`H#7`) in rendered diagnostics: its value depends
/// on how pass-3 workers interleave, so the determinism oracle flags
/// such programs at random.
bool rendersRawKeyId(const std::string &Text) {
  for (size_t I = Text.find('#'); I != std::string::npos;
       I = Text.find('#', I + 1))
    if (I > 0 && I + 1 < Text.size() &&
        std::isalpha(static_cast<unsigned char>(Text[I - 1])) &&
        std::isdigit(static_cast<unsigned char>(Text[I + 1])))
      return true;
  return false;
}

/// One differential-fuzzing campaign of a single program and its
/// mutant per item, through the parity, determinism and VM oracles.
class FuzzCampaign : public Workload {
public:
  const char *item() const override {
    return "one runCampaign of a program and its mutant (parity, "
           "determinism at jobs 4, vm)";
  }

  void setup(uint64_t Seed, const std::string &ScratchDir) override {
    this->Seed = Seed;
    TmpDir = ScratchDir + "/fuzz";
    std::filesystem::create_directories(TmpDir);
  }

  ItemOutcome runItem(uint64_t I, Tracer *T, Probe *P) override {
    unsigned Skipped = 0;
    uint64_t Sub = subSeed(I, Skipped);
    fuzz::CampaignOptions Opts;
    Opts.Seed = Sub;
    Opts.Count = 1;
    Opts.Reduce = false;
    // The round-trip oracle times the system C compiler, not Vault.
    Opts.RunRoundtrip = false;
    Opts.DetJobs = BenchJobs;
    Opts.TmpDir = TmpDir;
    Metrics M;

    ItemOutcome Out;
    auto T0 = Clock::now();
    fuzz::CampaignResult R = fuzz::runCampaign(Opts, &M, T);
    Out.Seconds = secondsSince(T0);

    if (!R.Pass || R.violations() != 0 || R.Generated != 1 || R.Mutants != 1 ||
        R.MutantsDetected != 1)
      Out.Failure = "campaign seed " + std::to_string(Sub) + " failed:\n" +
                    R.Report;
    if (P) {
      P->Counts["fuzz.programs"] += R.Generated + R.Mutants;
      P->Counts["fuzz.mutants_detected"] += R.MutantsDetected;
      P->Counts["fuzz.skipped_seeds"] += Skipped;
      for (const auto &[Name, N] : M.counters())
        if (Name.rfind("fuzz.oracle.", 0) == 0)
          P->Counts[Name] += N;
      fuzz::Generator G(Sub);
      fuzz::GeneratedProgram Clean = G.generate(0);
      lexProbe(Clean.Name, Clean.Text, *P);
      if (auto Mut = G.mutate(0))
        lexProbe(Mut->Name, Mut->Text, *P);
    }
    Out.Ok = Out.Failure.empty();
    return Out;
  }

  unsigned passItems() const override { return 8; }

  std::vector<LayerMetric> layers() const override {
    return {{"fuzz.generate.us", "us"},
            {"fuzz.mutate.us", "us"},
            {"fuzz.parity.us", "us"},
            {"fuzz.determinism.us", "us"},
            {"fuzz.vm.us", "us"},
            {"fuzz.campaign_self.us", "us"},
            {"fuzz.programs", "count"},
            {"fuzz.mutants_detected", "count"},
            {"lexer.us", "us"},
            {"lexer.tokens", "count"},
            OverheadMetric};
  }

private:
  /// The campaign seed of item \p I. Seeds whose program or mutant
  /// renders a raw key number are skipped (off the clock): until
  /// diagnostics render keys by display id, the determinism oracle
  /// flags those at random, and an item must not fail by chance.
  uint64_t subSeed(uint64_t I, unsigned &Skipped) const {
    for (uint64_t K = 0;; ++K) {
      fuzz::Rng R(Seed * 0x100000001B3ull + I * 0x9E3779B97F4A7C15ull + K);
      uint64_t Sub = R.next() >> 16;
      fuzz::Generator G(Sub);
      fuzz::GeneratedProgram Clean = G.generate(0);
      std::optional<fuzz::GeneratedProgram> Mut = G.mutate(0);
      if (!rendersRawKeyId(fuzz::checkText(Clean.Name, Clean.Text).Signature) &&
          (!Mut ||
           !rendersRawKeyId(fuzz::checkText(Mut->Name, Mut->Text).Signature)))
        return Sub;
      ++Skipped;
    }
  }

  uint64_t Seed = 1;
  std::string TmpDir;
};

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "corpus-cold", "unit-large-cold", "edit-warm", "run-dynamic",
      "fuzz-campaign"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "corpus-cold")
    return std::make_unique<CorpusCold>();
  if (Name == "unit-large-cold")
    return std::make_unique<UnitLargeCold>();
  if (Name == "edit-warm")
    return std::make_unique<EditWarm>();
  if (Name == "run-dynamic")
    return std::make_unique<RunDynamic>();
  if (Name == "fuzz-campaign")
    return std::make_unique<FuzzCampaign>();
  return nullptr;
}

} // namespace e2e
