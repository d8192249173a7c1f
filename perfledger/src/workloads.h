// The ledger's workloads. Each builds its inputs from the seed, runs a fixed
// amount of work derived from the run length, checks the outputs and returns
// either the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run).
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ledger {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< target length of the timed phase on the reference host
  bool trace = false;
  bool smoke = false;   ///< tiny grids and two operations of each kind (self-tests)
  int threads = 1;
  std::string out_dir = ".bench_out";  ///< dumps, checkpoints (removed) and traces (kept)
  std::chrono::steady_clock::time_point process_start = std::chrono::steady_clock::now();
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;  ///< steps, dumps, checkpoints and restarts attempted
  long failed = 0;     ///< of those, the ones that threw or reported failure
  std::vector<std::string> failures;  ///< reasons of the checks and operations that failed
  std::vector<std::string> record;    ///< run record: host, path taken, operations
  std::vector<Metric> metrics;
};

/// Runs one operation of the program (a step, dump, checkpoint or restart).
/// A throw, or `false` from an operation that reports success that way,
/// counts it in res.failed, records why and fails the run; the caller goes
/// on with the next operation it can still attempt.
template <typename Op>
bool attempt(RunResult& res, const std::string& what, Op&& op) {
  std::string why;
  try {
    if constexpr (std::is_same_v<std::invoke_result_t<Op>, bool>) {
      if (std::forward<Op>(op)()) return true;
      why = "reported failure";
    } else {
      std::forward<Op>(op)();
      return true;
    }
  } catch (const std::exception& e) {
    why = e.what();
  }
  ++res.failed;
  res.correct = false;
  res.failures.push_back(what + " failed: " + why);
  return false;
}

/// Runs one workload (node_step, cluster_step or io_cycle); throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] RunResult run_workload(const RunConfig& cfg);

}  // namespace ledger
