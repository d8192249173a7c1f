#include "workloads.h"

#include <omp.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <unistd.h>

#include "checks.h"
#include "cluster/cluster_simulation.h"
#include "compression/codec.h"
#include "compression/pipeline.h"
#include "core/simulation.h"
#include "host.h"
#include "io/checkpoint.h"
#include "io/compressed_file.h"
#include "io/retention.h"
#include "io/safe_file.h"
#include "kernels/rhs.h"
#include "perf/microbench.h"
#include "spans.h"
#include "wavelet/interp_wavelet.h"
#include "workload/cloud.h"

namespace ledger {
namespace {

namespace fs = std::filesystem;
namespace cl = mpcf::cluster;
namespace cmp = mpcf::compression;
using Clock = std::chrono::steady_clock;
using mpcf::Grid;
using mpcf::Simulation;

// Production dump thresholds of the paper's runs (pressure in Pa, Gamma).
constexpr float kEpsP = 1e5f;
constexpr float kEpsG = 2.3e-3f;

// Every run does whole rounds of fixed work: a round sets up the cloud, takes
// a fixed number of steps (with a dump, checkpoint and restart) and checks the
// outcome. The step count stays below the point where the cloud's
// interfaces first trip the positivity guard (about 22 steps at these
// resolutions), so every check can hold the guard to zero clamps. --seconds
// sets the number of rounds from the nominal length of one round on the
// reference host (README.md); the work never depends on the clock, so run_s
// is a time to solution, not the run length.
struct RoundPlan {
  int steps;               ///< timed steps (io_cycle: cycles) per round
  double nominal_seconds;  ///< wall time of one round on the reference host
};
// Samples of the I/O operations are spread over each round: the host's
// noise comes in phases of a few seconds, so samples far apart average it.
// node_step dumps after every second step and restores its one checkpoint
// three times; cluster_step dumps and checkpoints after every sixth step and
// restores twice.
constexpr RoundPlan kNodePlan{6, 20.0};
constexpr int kNodeDumpEvery = 2;
constexpr int kNodeRestores = 3;
constexpr RoundPlan kClusterPlan{12, 8.0};
constexpr int kClusterIoEvery = 6;
constexpr int kClusterRestores = 2;
constexpr RoundPlan kIoPlan{12, 6.0};

class Stopwatch {
 public:
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_ = Clock::now();
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Rounds of a run and timed steps per round (smoke runs: one round of two).
struct Rounds {
  int rounds;
  int steps;
};

Rounds rounds_for(double seconds, bool smoke, const RoundPlan& plan) {
  if (smoke) return {1, 2};
  return {std::max(1, static_cast<int>(seconds / plan.nominal_seconds + 0.5)), plan.steps};
}

/// Grid shape, domain and cloud of one workload.
struct Shape {
  int bx, by, bz, bs;
  double extent;
  mpcf::CloudParams cloud;
};

Shape shape_for(const std::string& workload, bool smoke, std::uint64_t seed) {
  Shape s{};
  mpcf::CloudParams& c = s.cloud;
  c.seed = seed;
  c.r_min = 60e-6;
  c.r_max = 220e-6;
  c.lognormal_mu = -8.9;  // median radius exp(-8.9) ~ 136 um
  if (smoke) {
    // 32^3 cells of 31 um, two bubbles: a test-sized run of the same code.
    s = {2, 2, 2, 16, 1e-3, c};
    s.cloud.count = 2;
    s.cloud.r_min = 50e-6;
    s.cloud.r_max = 90e-6;
    s.cloud.lognormal_mu = -9.4;
    s.cloud.box_lo = 0.3;
    s.cloud.box_hi = 0.7;
    return s;
  }
  // Many bubbles per grid, spread over the box, so that the dump and
  // checkpoint sizes vary little with where the seed puts them.
  if (workload == "node_step") {
    s = {8, 8, 8, 32, 4e-3, c};  // 256^3 cells of 15.6 um, 6.5-11 cells per radius
    s.cloud.count = 60;
    s.cloud.r_min = 100e-6;
    s.cloud.r_max = 170e-6;
  } else if (workload == "cluster_step") {
    s = {4, 4, 4, 32, 2e-3, c};  // 128^3 cells of 15.6 um, 2.5-8 cells per radius
    s.cloud.count = 80;
    s.cloud.r_min = 40e-6;
    s.cloud.r_max = 120e-6;
    s.cloud.lognormal_mu = -9.6;  // median radius ~ 68 um
  } else {
    s = {2, 2, 2, 32, 1e-3, c};  // 64^3 cells of 15.6 um, 2-4.5 cells per radius
    s.cloud.count = 40;
    s.cloud.r_min = 30e-6;
    s.cloud.r_max = 70e-6;
    s.cloud.lognormal_mu = -10.1;  // median radius ~ 41 um
  }
  // Spread over most of the box, so that the bubbles' wave fronts rarely
  // overlap: the checkpoint size follows their union.
  s.cloud.box_lo = 0.1;
  s.cloud.box_hi = 0.9;
  return s;
}

Simulation::Params sim_params(double extent) {
  Simulation::Params p;
  p.extent = extent;
  // Closed box: periodic on every face, so mass and energy are conserved.
  p.bc = mpcf::BoundaryConditions::all(mpcf::BCType::kPeriodic);
  return p;
}

cmp::CompressionParams dump_params(bool pressure, int workers) {
  cmp::CompressionParams p;
  p.mode = mpcf::wavelet::ThresholdMode::kGuaranteed;
  p.workers = workers;
  if (pressure) {
    p.derive_pressure = true;
    p.eps = kEpsP;
  } else {
    p.quantity = mpcf::Q_G;
    p.eps = kEpsG;
  }
  return p;
}

std::uint64_t file_bytes(const std::string& path) { return fs::file_size(path); }

/// Clock plus state digest of a node simulation.
struct Snapshot {
  double time = 0;
  long steps = 0;
  Digest digest;
};

Snapshot snapshot(const Simulation& s) { return {s.time(), s.step_count(), state_digest(s.grid())}; }

std::string compare_snapshots(const Snapshot& a, const Snapshot& b) {
  std::string why = compare_clock(a.time, a.steps, b.time, b.steps);
  if (why.empty() && !(a.digest == b.digest)) why = "states differ (digest)";
  return why;
}

/// End-to-end figures of one run.
struct EndToEnd {
  double setup_s = 0;
  std::vector<double> steps, dumps, checkpoints, restarts;
  std::vector<double> rounds;  ///< timed phase of each round
  double dump_bytes = 0;
  double checkpoint_bytes = 0;
  /// High-water mark at the end of the first round's timed phase, before
  /// the checks build their reference states.
  double peak_rss_mib = 0;
};

using Layers = std::map<std::string, double>;

struct LayerDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in output order; README.md maps each to the
// end-to-end metric it should move.
constexpr LayerDef kLayerMetrics[] = {
    {"workload.ic_s", "s"},
    {"core.first_step_s", "s"},
    {"core.step_s", "s"},
    {"core.block_work_s_per_step", "s"},
    {"core.step_residual_s", "s"},
    {"core.guard_s", "s"},
    {"core.sos_sweeps_per_step", "count"},
    {"grid.lab_s_per_block", "s"},
    {"kernels.rhs_s_per_block", "s"},
    {"kernels.rhs_gflops", "GFLOP/s"},
    {"kernels.rhs_pct_peak", "%"},
    {"kernels.update_s_per_block", "s"},
    {"kernels.update_gbs", "GB/s"},
    {"kernels.update_pct_stream", "%"},
    {"kernels.sos_s_per_block", "s"},
    {"simd.peak_gflops", "GFLOP/s"},
    {"simd.stream_gbs", "GB/s"},
    {"cluster.scatter_s", "s"},
    {"cluster.gather_s", "s"},
    {"cluster.step_s", "s"},
    {"cluster.node_step_s", "s"},
    {"cluster.node_loss", "ratio"},
    {"cluster.halo_exchange_s", "s"},
    {"cluster.halo_messages_per_step", "count"},
    {"cluster.halo_bytes_per_step", "B"},
    {"cluster.recv_wait_s_per_step", "s"},
    {"cluster.comm_work_s_per_step", "s"},
    {"cluster.ghost_cells_per_step", "count"},
    {"cluster.ghost_fetch_ns_per_cell", "ns"},
    {"wavelet.fwt_s_per_block", "s"},
    {"compression.encode_s_per_block", "s"},
    {"compression.compress_s", "s"},
    {"compression.ratio_p", "ratio"},
    {"compression.ratio_G", "ratio"},
    {"compression.worker_imbalance", "ratio"},
    {"io.cq_write_s", "s"},
    {"io.safe_file_commit_s", "s"},
    {"io.checkpoint_encode_s", "s"},
    {"io.load_s", "s"},
    {"io.latest_valid_scan_s", "s"},
    {"trace.spans", "count"},
    {"trace.overhead_s", "s"},
    {"trace.run_s", "s"},
};

/// State shared by the phases of one run.
struct Ctx {
  explicit Ctx(const RunConfig& c) : cfg(c), rec(c.trace) {}

  const RunConfig& cfg;
  SpanRecorder rec;
  RunResult res;
  std::string work;       ///< scratch directory for dumps and checkpoints
  double excluded_s = 0;  ///< check time spent inside the setup window
  long steps = 0, dumps = 0, checkpoints = 0, restarts = 0;
  double stall_s_per_step = 0;  ///< exposed halo stall of the measured cluster steps
  Drift drift;                  ///< largest conservation drift the checks saw
  double drift_tol = 0;         ///< tolerance of the last conservation check

  void check(const std::string& what, const std::string& failure) {
    if (failure.empty()) return;
    res.correct = false;
    res.failures.push_back(what + ": " + failure);
  }
  void expect(const std::string& what, bool ok) { check(what, ok ? "" : "does not hold"); }
};

// ---------------------------------------------------------------------------
// Timed operations shared by the workloads.

/// Standard normal quantile, by bisection of its CDF.
double normal_quantile(double u) {
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < u ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// The seeded cloud of a workload. Dump and checkpoint sizes follow the
/// total interface area, and `count` independently drawn radii would make
/// that area vary by ~10% from seed to seed on a cloud of 20. So the radii
/// are the `count` midpoint quantiles of the clipped lognormal, the same set
/// for every seed, and the seed chooses where each one goes:
/// `generate_cloud` places `count` bubbles of (just above) the largest
/// radius, which keeps the smaller radii it then receives apart, and a seeded
/// shuffle assigns the radii to the places.
std::vector<mpcf::Bubble> seeded_cloud(const mpcf::CloudParams& cp, double extent) {
  const auto cdf = [&](double r) {
    return 0.5 * std::erfc(-(std::log(r) - cp.lognormal_mu) /
                           (cp.lognormal_sigma * std::sqrt(2.0)));
  };
  const double u_lo = cdf(cp.r_min), u_hi = cdf(cp.r_max);
  std::vector<double> radii(cp.count);
  for (int i = 0; i < cp.count; ++i) {
    const double u = u_lo + (i + 0.5) / cp.count * (u_hi - u_lo);
    radii[i] = std::exp(cp.lognormal_mu + cp.lognormal_sigma * normal_quantile(u));
  }
  mpcf::CloudParams place = cp;
  place.r_min = radii.back();
  place.r_max = 1.05 * radii.back();
  place.lognormal_mu = std::log(radii.back()) + 0.01;
  place.lognormal_sigma = 0.005;
  std::vector<mpcf::Bubble> cloud = mpcf::generate_cloud(place, extent);
  std::mt19937_64 rng(cp.seed ^ 0x9e3779b97f4a7c15ULL);
  for (int i = cp.count - 1; i > 0; --i)
    std::swap(radii[i], radii[rng() % static_cast<std::uint64_t>(i + 1)]);
  for (int i = 0; i < cp.count; ++i) cloud[i].r = radii[i];
  return cloud;
}

std::vector<mpcf::Bubble> make_ic(Ctx& c, const Shape& sh, Grid& g, Layers& L) {
  Stopwatch sw;
  std::vector<mpcf::Bubble> bubbles;
  {
    auto s = c.rec.span("workload.generate_cloud");
    bubbles = seeded_cloud(sh.cloud, sh.extent);
  }
  {
    auto s = c.rec.span("workload.set_cloud_ic");
    mpcf::set_cloud_ic(g, bubbles, mpcf::TwoPhaseIC{});
  }
  L.emplace("workload.ic_s", sw.seconds());  // the cold, first-round figure
  return bubbles;
}

/// Thrown when a step fails: the state it leaves cannot be stepped on, so
/// the run ends there and reports what it has measured.
struct RunAborted {};

template <typename Sim>
double timed_step(Ctx& c, Sim& sim, const char* span, std::vector<double>* dts = nullptr) {
  auto s = c.rec.span(span);
  ++c.steps;
  double dt = 0;
  Stopwatch sw;
  if (!attempt(c.res, "step", [&] { dt = sim.step(); })) throw RunAborted{};
  const double t = sw.seconds();
  if (dts != nullptr) dts->push_back(dt);
  return t;
}

/// One dump of p and Gamma through the pipelined dump path: appends its
/// wall time to e.dumps and sets e.dump_bytes; false if it failed.
bool dump_node(Ctx& c, const Grid& g, const std::string& prefix, EndToEnd& e) {
  auto s = c.rec.span("compression.dump_quantity_pipelined");
  ++c.dumps;
  Stopwatch sw;
  if (!attempt(c.res, "dump", [&] {
        cmp::dump_quantity_pipelined(g, dump_params(true, c.cfg.threads), prefix + "_p.cq");
        cmp::dump_quantity_pipelined(g, dump_params(false, c.cfg.threads), prefix + "_G.cq");
      }))
    return false;
  e.dumps.push_back(sw.seconds());
  e.dump_bytes = static_cast<double>(file_bytes(prefix + "_p.cq") + file_bytes(prefix + "_G.cq"));
  return true;
}

void check_dumps(Ctx& c, const Grid& live, const std::string& prefix) {
  auto s = c.rec.span("ledger.check_dump");
  c.check("dump p within eps", check_dump(prefix + "_p.cq", live, dump_params(true, 1)));
  c.check("dump G within eps", check_dump(prefix + "_G.cq", live, dump_params(false, 1)));
}

/// Checks the state of `g`, `steps` steps after the initial condition whose
/// totals are `before`.
void check_state(Ctx& c, const Totals& before, const Grid& g, long steps, long clamped) {
  auto s = c.rec.span("ledger.check_state");
  const Totals after = conserved_totals(g);
  const Drift d = conservation_drift(before, after);
  c.drift.mass = std::max(c.drift.mass, d.mass);
  c.drift.energy = std::max(c.drift.energy, d.energy);
  const int bs = g.block_size();
  c.drift_tol = conservation_tolerance(static_cast<double>(g.block_count()) * bs * bs * bs, steps);
  c.check("mass and energy conserved", check_conserved(before, after, c.drift_tol));
  c.check("state physical", check_physical(g));
  c.check("guard clamped no cell",
          clamped == 0 ? "" : std::to_string(clamped) + " cells clamped");
}

// ---------------------------------------------------------------------------
// Per-layer probes of the traced run.

/// Serial one-thread sweep over every block of `sim` (one RK stage plus the
/// SOS reduction: the plain single-threaded baseline of the same problem),
/// the positivity guard and the host's peak rates. Mutates the state by one
/// stage, so it runs after every check.
void probe_node_layers(Ctx& c, Simulation& sim, double step_s, Layers& L) {
  auto top = c.rec.span("ledger.probe_node");
  {
    const long clamped = sim.params().clamped_cells;
    auto s = c.rec.span("core.apply_positivity_guard");
    Stopwatch sw;
    sim.apply_positivity_guard();
    L["core.guard_s"] = sw.seconds();
    c.expect("guard probe clamped no cell", sim.params().clamped_cells == clamped);
  }
  const int nb = sim.grid().block_count();
  const int bs = sim.grid().block_size();
  const double dt = sim.compute_dt();
  std::vector<double> lab(nb), rhs(nb), up(nb), sos(nb);
  double vmax = 0;
  for (int b = 0; b < nb; ++b) {
    {
      auto s = c.rec.span("grid.assemble_lab");
      Stopwatch sw;
      sim.assemble_lab(b, 0);
      lab[b] = sw.seconds();
    }
    {
      auto s = c.rec.span("kernels.rhs_from_lab");
      Stopwatch sw;
      sim.rhs_from_lab(mpcf::LsRk3::a[0], b, 0);
      rhs[b] = sw.seconds();
    }
    {
      auto s = c.rec.span("kernels.update_one");
      Stopwatch sw;
      sim.update_one(mpcf::LsRk3::b[0] * dt, b);
      up[b] = sw.seconds();
    }
    {
      auto s = c.rec.span("kernels.accumulate_block_speed");
      Stopwatch sw;
      sim.accumulate_block_speed(b, vmax);
      sos[b] = sw.seconds();
    }
  }
  c.expect("serial sweep speed positive", vmax > 0);
  const double cells = static_cast<double>(bs) * bs * bs;
  // Computed bytes of the update: read data and tmp, write data.
  const double update_bytes = 3.0 * cells * sizeof(mpcf::Cell);
  L["grid.lab_s_per_block"] = median(lab);
  L["kernels.rhs_s_per_block"] = median(rhs);
  L["kernels.update_s_per_block"] = median(up);
  L["kernels.sos_s_per_block"] = median(sos);
  L["kernels.rhs_gflops"] = mpcf::kernels::rhs_flops(bs) / median(rhs) * 1e-9;
  L["kernels.update_gbs"] = update_bytes / median(up) * 1e-9;
  {
    auto s = c.rec.span("simd.measure_peak_gflops");
    L["simd.peak_gflops"] = mpcf::perf::measure_peak_gflops(0.2);
  }
  {
    auto s = c.rec.span("simd.measure_bandwidth_gbs");
    L["simd.stream_gbs"] = mpcf::perf::measure_bandwidth_gbs(0.2);
  }
  // The sweep runs on one core, so both references are one-core figures.
  L["kernels.rhs_pct_peak"] = 100.0 * L["kernels.rhs_gflops"] / L["simd.peak_gflops"];
  L["kernels.update_pct_stream"] = 100.0 * L["kernels.update_gbs"] / L["simd.stream_gbs"];
  // A step runs three stages of lab+RHS+update per block and one SOS sweep.
  const double work = 3.0 * (sum(lab) + sum(rhs) + sum(up)) + sum(sos);
  L["core.step_s"] = step_s;
  L["core.block_work_s_per_step"] = work;
  L["core.step_residual_s"] = step_s - work / c.cfg.threads;
}

/// Wavelet, codec, pipeline and file-layer probes on the state of `g`, with
/// the newest checkpoint at `ckpt`: `load(path)` restores it directly,
/// `recover()` through the newest-valid scan and returns the path it took.
template <typename Load, typename Recover>
void probe_io_layers(Ctx& c, const Grid& g, const std::string& ckpt, double checkpoint_s,
                     Load&& load, Recover&& recover, Layers& L) {
  auto top = c.rec.span("ledger.probe_io");
  const int bs = g.block_size();
  const int levels = mpcf::wavelet::max_levels(bs);
  const cmp::CompressionParams pg = dump_params(false, c.cfg.threads);
  const cmp::CompressionParams pp = dump_params(true, c.cfg.threads);
  std::vector<float> cube(static_cast<std::size_t>(bs) * bs * bs);
  std::vector<double> fwt, enc;
  const int stride = std::max(1, g.block_count() / 64);
  for (int b = 0; b < g.block_count(); b += stride) {
    cmp::gather_block_quantity(g.block(b), bs, pg, cube.data());
    const mpcf::FieldView3D<float> view(cube.data(), bs, bs, bs);
    {
      auto s = c.rec.span("wavelet.forward_3d_decimate");
      Stopwatch sw;
      mpcf::wavelet::forward_3d(view, levels);
      mpcf::wavelet::decimate(view, levels, pg.eps, pg.mode);
      fwt.push_back(sw.seconds());
    }
    {
      auto s = c.rec.span("compression.encode");
      Stopwatch sw;
      const auto out = cmp::codec_for(pg.coder).encode(cube.data(), cube.size(), pg.zlib_level);
      enc.push_back(sw.seconds());
      c.expect("codec output non-empty", !out.data.empty());
    }
  }
  L["wavelet.fwt_s_per_block"] = median(fwt);
  L["compression.encode_s_per_block"] = median(enc);

  cmp::PipelineStats sp, sg;
  cmp::CompressedQuantity qp, qg;
  {
    auto s = c.rec.span("compression.compress_quantity_pipelined");
    Stopwatch sw;
    qp = cmp::compress_quantity_pipelined(g, pp, &sp);
    qg = cmp::compress_quantity_pipelined(g, pg, &sg);
    L["compression.compress_s"] = sw.seconds();
  }
  L["compression.ratio_p"] = qp.compression_rate();
  L["compression.ratio_G"] = qg.compression_rate();
  std::vector<double> per_worker(std::max(sp.worker_times.size(), sg.worker_times.size()), 0.0);
  for (std::size_t w = 0; w < sp.worker_times.size(); ++w)
    per_worker[w] += sp.worker_times[w].dec + sp.worker_times[w].enc;
  for (std::size_t w = 0; w < sg.worker_times.size(); ++w)
    per_worker[w] += sg.worker_times[w].dec + sg.worker_times[w].enc;
  L["compression.worker_imbalance"] = mpcf::imbalance(per_worker);
  {
    auto s = c.rec.span("io.write_compressed");
    Stopwatch sw;
    mpcf::io::write_compressed(c.work + "/probe_p.cq", qp);
    mpcf::io::write_compressed(c.work + "/probe_G.cq", qg);
    L["io.cq_write_s"] = sw.seconds();
  }
  {
    const std::vector<std::uint8_t> bytes = mpcf::io::read_file(ckpt);
    auto s = c.rec.span("io.safe_file_commit");
    Stopwatch sw;
    mpcf::io::SafeFile f(c.work + "/probe.bin");
    f.write(bytes.data(), bytes.size());
    f.commit();
    L["io.safe_file_commit_s"] = sw.seconds();
  }
  L["io.checkpoint_encode_s"] = checkpoint_s - L["io.safe_file_commit_s"];
  // Plain loads interleaved with full recoveries of the same file: the
  // difference of the medians is what the newest-valid scan adds.
  std::vector<double> loads, scans;
  for (int i = 0; i < 3; ++i) {
    {
      auto s = c.rec.span("io.load_checkpoint");
      Stopwatch sw;
      load(ckpt);
      loads.push_back(sw.seconds());
    }
    {
      auto s = c.rec.span("io.load_latest_valid");
      Stopwatch sw;
      c.expect("recovery probe restores the newest checkpoint", recover() == ckpt);
      scans.push_back(sw.seconds());
    }
  }
  L["io.load_s"] = median(loads);
  L["io.latest_valid_scan_s"] = median(scans) - median(loads);
}

/// Exchange and per-cell ghost-path probes on a stepped cluster.
void probe_cluster_paths(Ctx& c, cl::ClusterSimulation& cs, Layers& L) {
  auto top = c.rec.span("ledger.probe_cluster");
  std::vector<double> ex;
  for (int i = 0; i < 5; ++i) {
    auto s = c.rec.span("cluster.exchange_halos");
    Stopwatch sw;
    cs.exchange_halos();
    ex.push_back(sw.seconds());
  }
  L["cluster.halo_exchange_s"] = median(ex);

  // Lab ghost cells of each rank's blocks that lie outside the rank box:
  // the cells a step resolves one by one through GhostOverride/fetch_remote.
  const int g = mpcf::kGhosts;
  double per_step = 0;
  std::vector<std::array<int, 3>> rank0;
  for (const int r : cs.local_ranks()) {
    const Grid& rg = cs.rank_sim(r).grid();
    const int bs = rg.block_size();
    const int n[3] = {rg.cells_x(), rg.cells_y(), rg.cells_z()};
    int cx, cy, cz;
    cs.topology().coords(r, cx, cy, cz);
    const int origin[3] = {cx * n[0], cy * n[1], cz * n[2]};
    long count = 0;
    for (int b = 0; b < rg.block_count(); ++b) {
      int bc[3];
      rg.indexer().coords(b, bc[0], bc[1], bc[2]);
      for (int z = -g; z < bs + g; ++z)
        for (int y = -g; y < bs + g; ++y)
          for (int x = -g; x < bs + g; ++x) {
            const int l[3] = {bc[0] * bs + x, bc[1] * bs + y, bc[2] * bs + z};
            bool outside = false;
            for (int a = 0; a < 3; ++a) outside |= l[a] < 0 || l[a] >= n[a];
            if (!outside) continue;
            ++count;
            if (r == cs.local_ranks().front())
              rank0.push_back({origin[0] + l[0], origin[1] + l[1], origin[2] + l[2]});
          }
    }
    per_step += static_cast<double>(count) * mpcf::LsRk3::kStages;
  }
  L["cluster.ghost_cells_per_step"] = per_step;
  std::vector<double> ns;
  float sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto s = c.rec.span("cluster.fetch_remote");
    Stopwatch sw;
    mpcf::Cell cell;
    for (const auto& p : rank0)
      if (cs.fetch_remote(cs.local_ranks().front(), p[0], p[1], p[2], cell)) sink += cell.rho;
    ns.push_back(sw.seconds() * 1e9 / static_cast<double>(std::max<std::size_t>(1, rank0.size())));
  }
  c.expect("fetched ghost cells finite", std::isfinite(sink));
  L["cluster.ghost_fetch_ns_per_cell"] = median(ns);
}

/// Communication of cluster steps, accumulated step by step so that the
/// transport traffic of dumps and checkpoints stays out of it.
struct CommDelta {
  std::uint64_t messages = 0, bytes = 0;
  double recv_s = 0, stall_s = 0, work_s = 0;
};

double comm_step(Ctx& c, cl::ClusterSimulation& cs, const char* span, CommDelta& d,
                 std::vector<double>* dts = nullptr) {
  const cl::SimComm::Stats s0 = cs.comm().stats();
  const double w0 = cs.comm_work_time();
  const double t = timed_step(c, cs, span, dts);
  const cl::SimComm::Stats s1 = cs.comm().stats();
  d.messages += s1.messages - s0.messages;
  d.bytes += s1.bytes - s0.bytes;
  d.recv_s += s1.recv_seconds - s0.recv_seconds;
  d.stall_s += s1.stall_seconds - s0.stall_seconds;
  d.work_s += cs.comm_work_time() - w0;
  return t;
}

/// Per-step halo counters of `steps` cluster steps, checked against the
/// decomposition's geometry.
void record_halo_traffic(Ctx& c, const CommDelta& d, long steps, const HaloTraffic& expected,
                         Layers& L) {
  c.check("halo messages match geometry",
          d.messages == expected.messages * steps
              ? ""
              : std::to_string(d.messages) + " sent, " +
                    std::to_string(expected.messages * steps) + " expected");
  c.check("halo bytes match geometry",
          d.bytes == expected.bytes * steps
              ? ""
              : std::to_string(d.bytes) + " sent, " + std::to_string(expected.bytes * steps) +
                    " expected");
  L["cluster.halo_messages_per_step"] = static_cast<double>(d.messages) / steps;
  L["cluster.halo_bytes_per_step"] = static_cast<double>(d.bytes) / steps;
  L["cluster.recv_wait_s_per_step"] = d.recv_s / steps;
  L["cluster.comm_work_s_per_step"] = d.work_s / steps;
  // The fused, overlapped schedule accounts no exposed stall (comm_time()
  // and stats().stall_seconds stay 0), so the stall goes to the run record
  // rather than reading 0 as a metric on every run.
  c.stall_s_per_step = d.stall_s / steps;
}

const cl::CartTopology kTopo(2, 2, 2);

/// Cluster metrics of a node workload: its state decomposed over 2x2x2
/// in-process ranks, stepped, probed and gathered back into `sim`.
void probe_cluster_decomposition(Ctx& c, Simulation& sim, double node_step_s, Layers& L) {
  auto top = c.rec.span("ledger.probe_decomposition");
  Grid& g = sim.grid();
  cl::ClusterSimulation cs(g.blocks_x(), g.blocks_y(), g.blocks_z(), g.block_size(), kTopo,
                           sim.params());
  {
    auto s = c.rec.span("cluster.scatter");
    Stopwatch sw;
    cs.scatter(g);
    L["cluster.scatter_s"] = sw.seconds();
  }
  timed_step(c, cs, "cluster.step");  // builds the stage graphs
  CommDelta comm;
  std::vector<double> steps;
  for (int i = 0; i < 2; ++i) steps.push_back(comm_step(c, cs, "cluster.step", comm));
  record_halo_traffic(c, comm, 2,
                      expected_halo_traffic(g.blocks_x(), g.blocks_y(), g.blocks_z(),
                                            g.block_size(), kTopo, sim.params().bc),
                      L);
  probe_cluster_paths(c, cs, L);
  {
    auto s = c.rec.span("cluster.gather");
    Stopwatch sw;
    cs.gather(g);
    L["cluster.gather_s"] = sw.seconds();
  }
  L["cluster.step_s"] = median(steps);
  L["cluster.node_step_s"] = node_step_s;
  L["cluster.node_loss"] = median(steps) / node_step_s;
}

// ---------------------------------------------------------------------------
// Workloads.

/// Checkpoint through the rotator (keep-last-K): appends its wall time to
/// e.checkpoints and returns the path written, or "" if it failed.
std::string save_checkpoint(Ctx& c, mpcf::io::CheckpointRotator& rot, const Simulation& sim,
                            EndToEnd& e) {
  auto s = c.rec.span("io.checkpoint_save");
  ++c.checkpoints;
  std::string path;
  Stopwatch sw;
  if (!attempt(c.res, "checkpoint", [&] { path = rot.save(sim); })) return {};
  e.checkpoints.push_back(sw.seconds());
  e.checkpoint_bytes = static_cast<double>(file_bytes(path));
  return path;
}

/// Restores the newest valid checkpoint of `rot` into `fresh`: appends its
/// wall time to e.restarts; false if no checkpoint could be restored.
bool restart(Ctx& c, const mpcf::io::CheckpointRotator& rot, Simulation& fresh, EndToEnd& e) {
  auto s = c.rec.span("io.load_latest_valid");
  ++c.restarts;
  std::vector<std::string> skipped;
  Stopwatch sw;
  if (!attempt(c.res, "restart", [&] { return rot.load_latest_valid(fresh, &skipped); }))
    return false;
  e.restarts.push_back(sw.seconds());
  c.expect("restart skipped no checkpoint", skipped.empty());
  return true;
}

void emit_end_to_end(Ctx& c, const EndToEnd& e) {
  auto& m = c.res.metrics;
  m.push_back({"setup_s", e.setup_s, "s"});
  m.push_back({"step_s", median(e.steps), "s"});
  m.push_back({"run_s", median(e.rounds), "s"});
  m.push_back({"dump_s", median(e.dumps), "s"});
  m.push_back({"dump_bytes", e.dump_bytes, "B"});
  m.push_back({"checkpoint_s", median(e.checkpoints), "s"});
  m.push_back({"checkpoint_bytes", e.checkpoint_bytes, "B"});
  m.push_back({"restart_s", median(e.restarts), "s"});
  m.push_back({"peak_rss_mib", e.peak_rss_mib > 0 ? e.peak_rss_mib : peak_rss_mib(), "MiB"});
}

double setup_seconds(const Ctx& c) {
  return std::chrono::duration<double>(Clock::now() - c.cfg.process_start).count() -
         c.excluded_s;
}

/// One Simulation on a grid several times the LLC: timed steps, then one
/// dump, checkpoint and restart per round.
void run_node_step(Ctx& c, EndToEnd& e, Layers& L) {
  const Shape sh = shape_for("node_step", c.cfg.smoke, c.cfg.seed);
  const Rounds plan = rounds_for(c.cfg.seconds, c.cfg.smoke, kNodePlan);
  const Simulation::Params params = sim_params(sh.extent);
  for (int round = 0; round < plan.rounds; ++round) {
    // A fresh directory per round: the newest checkpoint is always this
    // round's.
    mpcf::io::CheckpointRotator rot(c.work + "/ckp" + std::to_string(round), "node", 2);
    std::unique_ptr<Simulation> sim;
    Totals totals0;
    {
      auto s = c.rec.span("ledger.setup");
      {
        auto s2 = c.rec.span("core.construct");
        sim = std::make_unique<Simulation>(sh.bx, sh.by, sh.bz, sh.bs, params);
      }
      make_ic(c, sh, sim->grid(), L);
      Stopwatch ex;
      totals0 = conserved_totals(sim->grid());
      c.excluded_s += ex.seconds();
      L.emplace("core.first_step_s", timed_step(c, *sim, "core.first_step"));
    }
    if (round == 0) e.setup_s = setup_seconds(c);

    double timed = 0;
    long sweeps = 0;
    for (int i = 1; i <= plan.steps; ++i) {
      const long sweeps0 = sim->profile().sos_sweeps;
      e.steps.push_back(timed_step(c, *sim, "core.step"));
      timed += e.steps.back();
      sweeps += sim->profile().sos_sweeps - sweeps0;
      if (i % kNodeDumpEvery != 0 && i != plan.steps) continue;
      if (!dump_node(c, sim->grid(), c.work + "/node", e)) continue;
      timed += e.dumps.back();
      check_dumps(c, sim->grid(), c.work + "/node");
    }
    L["core.sos_sweeps_per_step"] = static_cast<double>(sweeps) / plan.steps;

    const std::string ckpt = save_checkpoint(c, rot, *sim, e);
    if (!ckpt.empty()) timed += e.checkpoints.back();

    // The uninterrupted run goes one step further; its digest is what the
    // restarted run must reproduce. The live state is then released, so two
    // full states never coexist.
    const Snapshot at_ckpt = snapshot(*sim);
    timed_step(c, *sim, "ledger.reference_step");
    const Snapshot next = snapshot(*sim);
    check_state(c, totals0, sim->grid(), sim->step_count(), sim->params().clamped_cells);
    sim.reset();

    auto fresh = std::make_unique<Simulation>(sh.bx, sh.by, sh.bz, sh.bs, params);
    for (int i = 0; i < kNodeRestores; ++i) {
      if (!restart(c, rot, *fresh, e)) continue;
      timed += e.restarts.back();
      c.check("restart restores state and clock", compare_snapshots(snapshot(*fresh), at_ckpt));
    }
    e.rounds.push_back(timed);
    if (round == 0) e.peak_rss_mib = peak_rss_mib();
    timed_step(c, *fresh, "ledger.restart_step");
    c.check("restart continues bit for bit", compare_snapshots(snapshot(*fresh), next));
    check_state(c, totals0, fresh->grid(), fresh->step_count(), fresh->params().clamped_cells);

    if (!c.cfg.trace || round + 1 < plan.rounds) continue;
    const double step_s = median(e.steps);
    probe_node_layers(c, *fresh, step_s, L);
    probe_io_layers(
        c, fresh->grid(), ckpt, median(e.checkpoints),
        [&](const std::string& p) { mpcf::io::load_checkpoint(p, *fresh); },
        [&] { return rot.load_latest_valid(*fresh) ? rot.list().back() : std::string(); }, L);
    probe_cluster_decomposition(c, *fresh, step_s, L);
  }
}

/// 2x2x2 in-process ranks whose blocks all touch a rank face, checked bit
/// for bit against one rank advanced the same steps.
void run_cluster_step(Ctx& c, EndToEnd& e, Layers& L) {
  const Shape sh = shape_for("cluster_step", c.cfg.smoke, c.cfg.seed);
  const Rounds plan = rounds_for(c.cfg.seconds, c.cfg.smoke, kClusterPlan);
  const Simulation::Params params = sim_params(sh.extent);
  const HaloTraffic expected =
      expected_halo_traffic(sh.bx, sh.by, sh.bz, sh.bs, kTopo, params.bc);
  std::vector<double> node_steps;
  for (int round = 0; round < plan.rounds; ++round) {
    mpcf::io::CheckpointRotator rot(c.work + "/ckp" + std::to_string(round), "cluster", 2);
    std::unique_ptr<cl::ClusterSimulation> cs;
    std::unique_ptr<Grid> global;
    std::vector<mpcf::Bubble> bubbles;
    Totals totals0;
    std::vector<double> cdt;  // cluster dt per step
    {
      auto s = c.rec.span("ledger.setup");
      {
        auto s2 = c.rec.span("cluster.construct");
        cs = std::make_unique<cl::ClusterSimulation>(sh.bx, sh.by, sh.bz, sh.bs, kTopo, params);
        global = std::make_unique<Grid>(sh.bx, sh.by, sh.bz, sh.bs, sh.extent);
      }
      bubbles = make_ic(c, sh, *global, L);
      {
        auto s2 = c.rec.span("cluster.scatter");
        Stopwatch sw;
        cs->scatter(*global);
        L.emplace("cluster.scatter_s", sw.seconds());
      }
      Stopwatch ex;
      totals0 = conserved_totals(*global);
      c.excluded_s += ex.seconds();
      L.emplace("core.first_step_s", timed_step(c, *cs, "cluster.first_step", &cdt));
    }
    if (round == 0) e.setup_s = setup_seconds(c);

    double timed = 0;
    CommDelta comm;
    const long sweeps0 = cs->profile().sos_sweeps;
    const std::string prefix = c.work + "/cluster";
    std::string ckpt;
    for (int i = 1; i <= plan.steps; ++i) {
      e.steps.push_back(comm_step(c, *cs, "cluster.step", comm, &cdt));
      timed += e.steps.back();
      if (i % kClusterIoEvery != 0 && i != plan.steps) continue;
      bool dumped;
      {
        auto s = c.rec.span("cluster.dump_collective");
        ++c.dumps;
        Stopwatch sw;
        dumped = attempt(c.res, "dump", [&] {
          cs->dump_collective(prefix + "_p.cq", dump_params(true, c.cfg.threads));
          cs->dump_collective(prefix + "_G.cq", dump_params(false, c.cfg.threads));
        });
        if (dumped) {
          e.dumps.push_back(sw.seconds());
          timed += e.dumps.back();
          e.dump_bytes =
              static_cast<double>(file_bytes(prefix + "_p.cq") + file_bytes(prefix + "_G.cq"));
        }
      }
      {
        auto s = c.rec.span("cluster.gather");
        Stopwatch sw;
        cs->gather(*global);
        L["cluster.gather_s"] = sw.seconds();
      }
      if (dumped) check_dumps(c, *global, prefix);
      {
        auto s = c.rec.span("cluster.save_checkpoint_rotating");
        ++c.checkpoints;
        Stopwatch sw;
        if (attempt(c.res, "checkpoint", [&] { ckpt = cs->save_checkpoint_rotating(rot); })) {
          e.checkpoints.push_back(sw.seconds());
          timed += e.checkpoints.back();
          e.checkpoint_bytes = static_cast<double>(file_bytes(ckpt));
        }
      }
    }
    record_halo_traffic(c, comm, plan.steps, expected, L);
    L["core.sos_sweeps_per_step"] =
        static_cast<double>(cs->profile().sos_sweeps - sweeps0) / plan.steps;

    cl::ClusterSimulation fresh(sh.bx, sh.by, sh.bz, sh.bs, kTopo, params);
    for (int i = 0; i < kClusterRestores; ++i) {
      auto s = c.rec.span("cluster.load_latest_valid_checkpoint");
      ++c.restarts;
      std::vector<std::string> skipped;
      std::string got;
      Stopwatch sw;
      if (!attempt(c.res, "restart", [&] {
            got = fresh.load_latest_valid_checkpoint(rot, &skipped);
            return !got.empty();
          }))
        continue;
      e.restarts.push_back(sw.seconds());
      timed += e.restarts.back();
      c.expect("restart found the newest checkpoint", got == ckpt && skipped.empty());
    }
    e.rounds.push_back(timed);
    if (round == 0) e.peak_rss_mib = peak_rss_mib();

    // Node against cluster: the same steps on one rank from the same
    // initial state, bit for bit.
    Simulation ref(sh.bx, sh.by, sh.bz, sh.bs, params);
    {
      auto s = c.rec.span("ledger.check_node_vs_cluster");
      mpcf::set_cloud_ic(ref.grid(), bubbles, mpcf::TwoPhaseIC{});
      std::vector<double> rdt;
      timed_step(c, ref, "ledger.reference_step", &rdt);
      for (int i = 0; i < plan.steps; ++i)
        node_steps.push_back(timed_step(c, ref, "ledger.reference_step", &rdt));
      c.expect("node and cluster take the same dt every step", rdt == cdt);
      c.check("cluster state equals the single-rank state", compare_grids(*global, ref.grid()));
      c.check("cluster clock equals the single-rank clock",
              compare_clock(cs->time(), cs->profile().steps, ref.time(), ref.step_count()));
    }
    Grid restored(sh.bx, sh.by, sh.bz, sh.bs, sh.extent);
    {
      auto s = c.rec.span("ledger.check_restart");
      fresh.gather(restored);
      c.check("restart restores the state", compare_grids(restored, *global));
      c.check("restart restores the clock", compare_clock(fresh.time(), fresh.profile().steps,
                                                          cs->time(), cs->profile().steps));
      timed_step(c, *cs, "ledger.reference_step");
      timed_step(c, fresh, "ledger.restart_step");
      cs->gather(*global);
      fresh.gather(restored);
      c.check("restart continues bit for bit", compare_grids(restored, *global));
      c.check("restart continues the clock", compare_clock(fresh.time(), fresh.profile().steps,
                                                           cs->time(), cs->profile().steps));
    }
    long clamped = ref.params().clamped_cells;
    for (const int r : cs->local_ranks())
      clamped +=
          cs->rank_sim(r).params().clamped_cells + fresh.rank_sim(r).params().clamped_cells;
    check_state(c, totals0, *global, cs->profile().steps, clamped);

    if (!c.cfg.trace || round + 1 < plan.rounds) continue;
    const double step_s = median(e.steps);
    L["cluster.step_s"] = step_s;
    L["cluster.node_step_s"] = median(node_steps);
    L["cluster.node_loss"] = step_s / median(node_steps);
    probe_cluster_paths(c, *cs, L);
    probe_node_layers(c, ref, step_s, L);
    probe_io_layers(
        c, *global, ckpt, median(e.checkpoints),
        [&](const std::string& p) { mpcf::io::load_grid_checkpoint(p, restored); },
        [&] { return fresh.load_latest_valid_checkpoint(rot); }, L);
  }
}

/// One in-cache Simulation cycling step, dump, rotating checkpoint and a
/// restore into a fresh Simulation, which carries the run on.
void run_io_cycle(Ctx& c, EndToEnd& e, Layers& L) {
  const Shape sh = shape_for("io_cycle", c.cfg.smoke, c.cfg.seed);
  const Rounds plan = rounds_for(c.cfg.seconds, c.cfg.smoke, kIoPlan);
  const Simulation::Params params = sim_params(sh.extent);
  for (int round = 0; round < plan.rounds; ++round) {
    std::unique_ptr<Simulation> sim;
    std::vector<mpcf::Bubble> bubbles;
    Totals totals0;
    {
      auto s = c.rec.span("ledger.setup");
      {
        auto s2 = c.rec.span("core.construct");
        sim = std::make_unique<Simulation>(sh.bx, sh.by, sh.bz, sh.bs, params);
      }
      bubbles = make_ic(c, sh, sim->grid(), L);
      Stopwatch ex;
      totals0 = conserved_totals(sim->grid());
      c.excluded_s += ex.seconds();
      L.emplace("core.first_step_s", timed_step(c, *sim, "core.first_step"));
    }
    if (round == 0) e.setup_s = setup_seconds(c);

    mpcf::io::CheckpointRotator rot(c.work + "/ckp" + std::to_string(round), "io", 3);
    double timed = 0;
    long clamped = 0, sweeps = 0;
    std::string ckpt;
    for (int i = 0; i < plan.steps; ++i) {
      const long sweeps0 = sim->profile().sos_sweeps;
      e.steps.push_back(timed_step(c, *sim, "core.step"));
      timed += e.steps.back();
      sweeps += sim->profile().sos_sweeps - sweeps0;
      if (dump_node(c, sim->grid(), c.work + "/io", e)) {
        timed += e.dumps.back();
        check_dumps(c, sim->grid(), c.work + "/io");
      }
      ckpt = save_checkpoint(c, rot, *sim, e);
      if (!ckpt.empty()) timed += e.checkpoints.back();
      auto fresh = std::make_unique<Simulation>(sh.bx, sh.by, sh.bz, sh.bs, params);
      // Without a restore the live run carries on.
      if (!restart(c, rot, *fresh, e)) continue;
      timed += e.restarts.back();
      c.check("restart restores state and clock",
              compare_snapshots(snapshot(*fresh), snapshot(*sim)));
      clamped += sim->params().clamped_cells;
      sim = std::move(fresh);
    }
    e.rounds.push_back(timed);
    if (round == 0) e.peak_rss_mib = peak_rss_mib();
    clamped += sim->params().clamped_cells;
    L["core.sos_sweeps_per_step"] = static_cast<double>(sweeps) / plan.steps;

    // The restarted chain against one uninterrupted run of the same steps.
    {
      auto s = c.rec.span("ledger.check_uninterrupted");
      Simulation ref(sh.bx, sh.by, sh.bz, sh.bs, params);
      mpcf::set_cloud_ic(ref.grid(), bubbles, mpcf::TwoPhaseIC{});
      for (int i = 0; i <= plan.steps; ++i) timed_step(c, ref, "ledger.reference_step");
      c.check("restarted chain equals the uninterrupted run",
              compare_grids(sim->grid(), ref.grid()));
      c.check("restarted chain keeps the clock",
              compare_clock(sim->time(), sim->step_count(), ref.time(), ref.step_count()));
      clamped += ref.params().clamped_cells;
    }
    check_state(c, totals0, sim->grid(), sim->step_count(), clamped);

    if (!c.cfg.trace || round + 1 < plan.rounds) continue;
    const double step_s = median(e.steps);
    probe_node_layers(c, *sim, step_s, L);
    probe_io_layers(
        c, sim->grid(), ckpt, median(e.checkpoints),
        [&](const std::string& p) { mpcf::io::load_checkpoint(p, *sim); },
        [&] { return rot.load_latest_valid(*sim) ? rot.list().back() : std::string(); }, L);
    probe_cluster_decomposition(c, *sim, step_s, L);
  }
}

/// The run's dump and checkpoint directory, removed with everything in it
/// when the run ends, by return or by exception.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) { fs::create_directories(path); }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string path;
};

/// Cost of recording one span, measured on a scratch recorder.
double span_cost_s() {
  SpanRecorder scratch(true);
  constexpr int kSpans = 20000;
  Stopwatch sw;
  for (int i = 0; i < kSpans; ++i) auto s = scratch.span("trace.calibrate");
  return sw.seconds() / kSpans;
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  void (*run)(Ctx&, EndToEnd&, Layers&) = nullptr;
  if (cfg.workload == "node_step") run = run_node_step;
  else if (cfg.workload == "cluster_step") run = run_cluster_step;
  else if (cfg.workload == "io_cycle") run = run_io_cycle;
  else throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  Ctx c(cfg);
  omp_set_num_threads(cfg.threads);
  const ScratchDir work(cfg.out_dir + "/work-" + cfg.workload + "-" +
                        std::to_string(cfg.seed) + "-" + std::to_string(getpid()));
  c.work = work.path;
  EndToEnd e;
  Layers L;
  bool aborted = false;
  try {
    run(c, e, L);
  } catch (const RunAborted&) {
    aborted = true;  // the failed step is already counted and recorded
  }

  const Shape sh = shape_for(cfg.workload, cfg.smoke, cfg.seed);
  for (const std::string& line : describe(fingerprint_host(sh.bs, cfg.threads)))
    c.res.record.push_back("host " + line);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "input grid=%dx%dx%d blocks of %d^3 extent=%g m bubbles=%d seed=%llu",
                sh.bx, sh.by, sh.bz, sh.bs, sh.extent, sh.cloud.count,
                static_cast<unsigned long long>(cfg.seed));
  c.res.record.push_back(buf);
  std::snprintf(buf, sizeof(buf), "ops steps=%ld dumps=%ld checkpoints=%ld restarts=%ld failed=%ld",
                c.steps, c.dumps, c.checkpoints, c.restarts, c.res.failed);
  c.res.record.push_back(buf);
  std::snprintf(buf, sizeof(buf), "conservation max_drift mass=%.3g energy=%.3g tolerance=%.3g",
                c.drift.mass, c.drift.energy, c.drift_tol);
  c.res.record.push_back(buf);
  c.res.attempted = c.steps + c.dumps + c.checkpoints + c.restarts;
  if (cfg.trace) {
    std::snprintf(buf, sizeof(buf), "cluster stall_s_per_step=%.9g", c.stall_s_per_step);
    c.res.record.push_back(buf);
  }

  if (!cfg.trace) {
    emit_end_to_end(c, e);
    return std::move(c.res);
  }
  L["trace.run_s"] = median(e.rounds);
  L["trace.spans"] = static_cast<double>(c.rec.spans().size());
  L["trace.overhead_s"] = L["trace.spans"] * span_cost_s();
  const std::string stem = cfg.out_dir + "/trace/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + (cfg.smoke ? "-smoke" : "");
  fs::create_directories(cfg.out_dir + "/trace");
  c.rec.write_chrome_trace(stem + ".json");
  {
    std::ofstream f(stem + ".txt");
    f << c.rec.table();
  }
  c.res.record.push_back("trace " + stem + ".json");
  for (const LayerDef& d : kLayerMetrics) {
    const auto it = L.find(d.name);
    if (it == L.end() && aborted) continue;
    if (it == L.end()) throw std::logic_error(std::string("layer metric not measured: ") + d.name);
    c.res.metrics.push_back({d.name, it->second, d.unit});
  }
  return std::move(c.res);
}

}  // namespace ledger
