#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include "kernels/update.h"
#include "simd/dispatch.h"

namespace ledger {

HostRecord fingerprint_host(int bs, int threads) {
  HostRecord h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.threads = threads;
  h.dispatch = mpcf::simd::width_name(mpcf::simd::dispatch_width());
  h.compiler = LEDGER_COMPILER;
  h.flags = LEDGER_FLAGS;
  h.llc_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const auto choice = mpcf::kernels::update_auto_choice(bs, mpcf::simd::Width::kAuto);
  h.update_auto = std::string(mpcf::simd::width_name(choice.width)) + "/" +
                  mpcf::kernels::update_variant_name(choice.variant);
  return h;
}

std::vector<std::string> describe(const HostRecord& h) {
  return {
      "nproc=" + std::to_string(h.nproc),
      "threads=" + std::to_string(h.threads),
      "dispatch=" + h.dispatch,
      "compiler=" + h.compiler,
      "flags=" + h.flags,
      "llc_bytes=" + std::to_string(h.llc_bytes),
      "update_auto=" + h.update_auto,
  };
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace ledger
