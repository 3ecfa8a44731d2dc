//===- Synth.h - Seeded synthetic inputs with ground truth ------*- C++ -*-===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generated inputs of the end-to-end benchmark: a many-function
/// compilation unit built from four protocol templates (region loop
/// nests, socket lifecycles, guarded cells borrowed under a mutex,
/// keyed-variant switches) with seeded defects whose diagnostics are
/// known by construction, and the three dynamic-oracle kernels of the
/// run-dynamic workload.
///
//===----------------------------------------------------------------------===//

#ifndef VAULT_E2EBENCH_SYNTH_H
#define VAULT_E2EBENCH_SYNTH_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// One generated function and what the checker must say about it.
struct SynthFunction {
  std::string Name;
  unsigned Buffer = 0;    ///< Index into SynthUnit::Buffers.
  unsigned FirstLine = 0; ///< 1-based, the signature line.
  unsigned LastLine = 0;  ///< 1-based, the closing brace.
  /// Error diagnostics the checker reports for this function, sorted.
  /// Empty for the clean ones.
  std::vector<vault::DiagId> Expect;
  /// Byte offset, within the buffer text, of the function's 9-digit
  /// `tag` literal: rewriting it changes the body but no line or
  /// column of any diagnostic.
  size_t TagOffset = 0;
};

struct SynthUnit {
  std::vector<std::pair<std::string, std::string>> Buffers; ///< name, text
  std::vector<SynthFunction> Functions;

  /// Index of the function whose lines span \p Line of buffer
  /// \p Buffer, or -1.
  int functionAt(unsigned Buffer, unsigned Line) const;
};

/// Width of the tag literal every template starts with.
constexpr unsigned TagDigits = 9;

/// \p Functions functions over \p NumBuffers buffers; the first buffer
/// starts with the corpus preludes. One function in 64 carries a
/// seeded defect. The templates cycle in a fixed order, so the work per
/// unit does not depend on the seed; the seed picks the defect sites
/// and the literals.
SynthUnit makeUnit(uint64_t Seed, unsigned Functions, unsigned NumBuffers);

/// Writes \p Value as the tag literal at \p Offset of \p Text.
void setTag(std::string &Text, size_t Offset, uint64_t Value);

/// A self-contained program for the dynamic engines.
struct Kernel {
  std::string Name;
  std::string Text;
};

/// The arithmetic-loop, recursive-call and tracked-field kernels.
/// Their sizes are fixed; the seed only changes literals.
std::vector<Kernel> makeKernels(uint64_t Seed);

} // namespace e2e

#endif // VAULT_E2EBENCH_SYNTH_H
