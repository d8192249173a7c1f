// Ledger command: runs one workload and prints its run record followed, as
// the last line of standard output, by one JSON object with the keys
// correct, attempted, failed and metrics.
//
//   ledger --workload <node_step|cluster_step|io_cycle> --seed <n>
//          --seconds <s> --trace <0|1> [--out <dir>]
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

// Captured during static initialisation: the start of the process as far as
// set-up time is concerned.
const auto kProcessStart = std::chrono::steady_clock::now();

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::RunConfig cfg;
  cfg.process_start = kProcessStart;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else if (a == "--out") {
        cfg.out_dir = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  // A fixed team no larger than the host: many blocks per thread, and the
  // dump pipeline gets the same number of workers.
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  cfg.threads = std::max(1, std::min(4, nproc));

  ledger::RunResult r;
  try {
    r = ledger::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s failed: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& line : r.record) std::printf("# %s\n", line.c_str());
  for (const std::string& f : r.failures) {
    std::printf("# FAILED %s\n", f.c_str());
    std::fprintf(stderr, "ledger: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
