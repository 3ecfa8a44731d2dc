//===- Layers.cpp ---------------------------------------------------------===//

#include "Layers.h"

#include "support/JsonParse.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <vector>

namespace e2e {

namespace {

/// The layer a span belongs to: the checker's, server's and fuzz
/// campaign's span names map to module layers ("parse" -> "parser",
/// "check f" -> "sema.flow", ...); the benchmark's own spans are named
/// after their layer already.
std::string layerOf(std::string_view Name) {
  auto StartsWith = [&](std::string_view P) {
    return Name.substr(0, P.size()) == P;
  };
  if (Name == "parse" || Name == "parse-sources")
    return "parser";
  if (Name == "register-decls")
    return "sema.register";
  if (Name == "elab-signatures" || StartsWith("elab "))
    return "sema.elab";
  if (Name == "fingerprint")
    return "sema.fingerprint";
  if (StartsWith("cache-"))
    return "sema.cache";
  if (Name == "flow-check" || StartsWith("check "))
    return "sema.flow";
  if (Name == "merge")
    return "sema.merge";
  if (Name == "request")
    return "server.handle";
  if (Name == "check")
    return "server.check";
  if (Name == "admission.wait")
    return "server.admission_wait";
  if (Name == "fuzz.campaign")
    return "fuzz.campaign_self";
  if (StartsWith("fuzz.oracle."))
    return "fuzz." + std::string(Name.substr(12));
  return std::string(Name);
}

struct Event {
  std::string Name;
  uint64_t Ts = 0;
  uint64_t Dur = 0;
  uint64_t Tid = 0;
};

} // namespace

bool layerSelfTimes(const std::string &TraceJson, uint64_t BeginUs,
                    uint64_t EndUs, std::map<std::string, double> &Out,
                    std::string &Err) {
  vault::json::ParseLimits Limits;
  Limits.MaxBytes = 256u << 20;
  std::optional<vault::json::Value> Doc =
      vault::json::parseJson(TraceJson, &Err, Limits);
  const vault::json::Value *List = Doc ? Doc->find("traceEvents") : nullptr;
  if (!List || !List->isArray()) {
    Err = Doc ? "not a trace-event document" : "trace: " + Err;
    return false;
  }
  std::vector<Event> Events;
  uint64_t MainTid = 0;
  bool HaveMain = false;
  for (const vault::json::Value &V : List->Elems) {
    const vault::json::Value *Name = V.find("name"), *Ts = V.find("ts"),
                             *Dur = V.find("dur"), *Tid = V.find("tid");
    if (!Name || !Ts || !Dur || !Tid) {
      Err = "trace event without name, ts, dur or tid";
      return false;
    }
    Event E{Name->Str, static_cast<uint64_t>(Ts->Num),
            static_cast<uint64_t>(Dur->Num), static_cast<uint64_t>(Tid->Num)};
    if (E.Name == ThreadMarkerSpan && !HaveMain) {
      MainTid = E.Tid;
      HaveMain = true;
    }
    Events.push_back(std::move(E));
  }
  if (!HaveMain) {
    Err = "trace has no benchmark-thread marker";
    return false;
  }

  // Events arrive sorted by (ts, dur desc), so a parent precedes the
  // spans it contains; a stack of open spans finds each one's parent.
  std::vector<const Event *> Kept;
  std::vector<uint64_t> ChildDur;
  std::vector<size_t> OpenIdx;
  for (const Event &E : Events)
    if (E.Tid == MainTid && E.Ts >= BeginUs && E.Ts < EndUs &&
        E.Name != ThreadMarkerSpan)
      Kept.push_back(&E);
  ChildDur.assign(Kept.size(), 0);
  for (size_t I = 0; I < Kept.size(); ++I) {
    const Event &E = *Kept[I];
    while (!OpenIdx.empty()) {
      const Event &P = *Kept[OpenIdx.back()];
      if (E.Ts >= P.Ts && E.Ts + E.Dur <= P.Ts + P.Dur)
        break;
      OpenIdx.pop_back();
    }
    if (!OpenIdx.empty())
      ChildDur[OpenIdx.back()] += E.Dur;
    OpenIdx.push_back(I);
  }
  for (size_t I = 0; I < Kept.size(); ++I)
    Out[layerOf(Kept[I]->Name)] +=
        static_cast<double>(Kept[I]->Dur - std::min(ChildDur[I], Kept[I]->Dur));
  return true;
}

} // namespace e2e
