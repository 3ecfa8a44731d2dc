//===- Workloads.h - The five closed-loop workloads -------------*- C++ -*-===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload is one client in a closed loop: it issues an item,
/// waits for the result, checks it, and only then issues the next.
/// Items are numbered; item I is a pure function of (seed, I), so the
/// deterministic counter pass (items 0..passItems()-1) repeats exactly.
///
//===----------------------------------------------------------------------===//

#ifndef VAULT_E2EBENCH_WORKLOADS_H
#define VAULT_E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace vault {
class Tracer;
}

namespace e2e {

/// Worker threads per child: the compiler's jobs in the checker
/// workloads and the determinism oracle's N. Equal to the CPU count of
/// the machine the bounds were set on.
constexpr unsigned BenchJobs = 4;

/// Counts and probe times gathered by the deterministic pass.
struct Probe {
  std::map<std::string, uint64_t> Counts;
  double LexUs = 0; ///< Lexer::lexAll over every input buffer.
};

struct ItemOutcome {
  double Seconds = 0; ///< Time on the clock; output checks run off it.
  bool Ok = true;
  std::string Failure; ///< Why the output check failed.
};

/// A per-layer metric a workload reports from its traced child.
struct LayerMetric {
  std::string Name;
  std::string Unit;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// What one item is, for the result file.
  virtual const char *item() const = 0;

  /// Builds the inputs from \p Seed and whatever state items share.
  /// \p ScratchDir is a private directory the workload may write.
  virtual void setup(uint64_t Seed, const std::string &ScratchDir) = 0;

  /// Runs item \p I. Spans go to \p T when non-null; \p P, when
  /// non-null, receives the item's work counters and lexer probe.
  virtual ItemOutcome runItem(uint64_t I, vault::Tracer *T, Probe *P) = 0;

  /// Items in the deterministic counter pass.
  virtual unsigned passItems() const = 0;

  /// Routes every later item's spans to \p T; called once, between the
  /// untraced and the traced slice. Workloads that hand the tracer to
  /// each call need nothing here.
  virtual void attachTracer(vault::Tracer *) {}

  /// Per-layer values measured during setup (e.g. corpus.load.us).
  virtual std::map<std::string, double> setupLayers() const { return {}; }

  /// The per-layer metrics the traced child reports, in print order.
  virtual std::vector<LayerMetric> layers() const = 0;

  /// Overrides the workload's job count (for the counter pass's
  /// job-invariance check). Returns false when jobs do not apply.
  virtual bool setJobs(unsigned) { return false; }
};

/// Workload names in canonical order.
const std::vector<std::string> &workloadNames();

/// Creates the named workload, or null.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

} // namespace e2e

#endif // VAULT_E2EBENCH_WORKLOADS_H
