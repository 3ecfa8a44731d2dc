//===- Report.h - Statistics, result files and comparison -------*- C++ -*-===//
//
// Part of the Vault reproduction of DeLine & Fähndrich, PLDI 2001.
//
//===----------------------------------------------------------------------===//

#ifndef VAULT_E2EBENCH_REPORT_H
#define VAULT_E2EBENCH_REPORT_H

#include <string>
#include <vector>

namespace e2e {

/// Median of \p V (which it sorts).
double median(std::vector<double> V);

/// The three cut points of \p V into quarters, by the same rule as
/// Python's statistics.quantiles(V, n=4) (the "exclusive" method), so
/// spreads read the same here and in any script over the result files.
/// Needs two or more values; with one, all three are that value.
std::vector<double> quartiles(std::vector<double> V);

/// Nearest-rank percentile \p Pct of \p V (which it sorts).
double percentile(std::vector<double> V, double Pct);

/// Appends \p RunJson to the "runs" array of the result file at
/// \p Path, creating the file when absent. Refuses (and returns false
/// with \p Err set) when an existing file is not a result file.
bool appendRun(const std::string &Path, const std::string &RunJson,
               std::string &Err);

/// `bench_e2e --compare`: compares every (workload, end-to-end metric)
/// of each file in \p Others against \p Base under the bounds of the
/// benchmark description at \p BenchmarkJson, printing one row each.
/// Returns 0 when no row is worse or unresolved, 1 when one is, 2 on
/// unreadable input.
int compareRuns(const std::string &BenchmarkJson, const std::string &Base,
                const std::vector<std::string> &Others);

} // namespace e2e

#endif // VAULT_E2EBENCH_REPORT_H
