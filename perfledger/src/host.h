// Host fingerprint and path record printed with every ledger run: what the
// numbers were measured on and which code path the program took.
#pragma once

#include <string>
#include <vector>

namespace ledger {

struct HostRecord {
  int nproc = 0;          ///< online processors
  int threads = 0;        ///< OpenMP threads the workload runs with
  std::string dispatch;   ///< resolved SIMD width of the kernels
  std::string compiler;   ///< compiler id and version of this build
  std::string flags;      ///< compile options of this build
  long llc_bytes = 0;     ///< last-level cache size (0 or -1 if unknown)
  std::string update_auto;  ///< kernels::update_auto_choice(bs, kAuto)
};

/// Fingerprints the host for blocks of edge `bs` run on `threads` threads.
[[nodiscard]] HostRecord fingerprint_host(int bs, int threads);

/// "key=value" lines of the record, one per field.
[[nodiscard]] std::vector<std::string> describe(const HostRecord& h);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace ledger
