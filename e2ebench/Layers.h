//===- Layers.h - Per-layer self time from a span trace ---------*- C++ -*-===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a vault::Tracer document into per-layer self times. A span's
/// self time is its duration minus the durations of the spans directly
/// nested in it on the same thread; a layer's time is the sum of the
/// self times of its spans. Only the benchmark's own thread counts, so
/// a phase that fans out to workers is charged its wall time on the
/// blocking path, not the workers' summed CPU time.
///
//===----------------------------------------------------------------------===//

#ifndef VAULT_E2EBENCH_LAYERS_H
#define VAULT_E2EBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <string>

namespace e2e {

/// The span the benchmark thread records first, so its events are
/// found by name rather than by a thread-numbering assumption.
constexpr const char *ThreadMarkerSpan = "bench.thread";

/// Sums self time per layer, in microseconds, over the events of the
/// benchmark thread that start in [BeginUs, EndUs). Returns false with
/// \p Err set when \p TraceJson is not a Tracer document.
bool layerSelfTimes(const std::string &TraceJson, uint64_t BeginUs,
                    uint64_t EndUs, std::map<std::string, double> &Out,
                    std::string &Err);

} // namespace e2e

#endif // VAULT_E2EBENCH_LAYERS_H
