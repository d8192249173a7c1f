// Self-tests of the ledger: every correctness check passes on intact output
// and fails on one corrupted case, and every workload completes a smoke-size
// run with all its metrics.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "cluster/cluster_simulation.h"
#include "compression/pipeline.h"
#include "core/simulation.h"
#include "io/checkpoint.h"
#include "io/retention.h"
#include "workload/cloud.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using mpcf::Grid;
using mpcf::Simulation;

const std::string kOut = ".bench_out/tests";

Simulation::Params closed_box() {
  Simulation::Params p;
  p.extent = 1e-3;
  p.bc = mpcf::BoundaryConditions::all(mpcf::BCType::kPeriodic);
  return p;
}

void cloud_ic(Grid& g) {
  mpcf::CloudParams cp;
  cp.count = 2;
  cp.r_min = 50e-6;
  cp.r_max = 90e-6;
  cp.lognormal_mu = -9.4;
  cp.seed = 7;
  mpcf::set_cloud_ic(g, mpcf::generate_cloud(cp, 1e-3), mpcf::TwoPhaseIC{});
}

std::string out_dir(const std::string& name) {
  const std::string d = kOut + "/" + name;
  fs::create_directories(d);
  return d;
}

TEST(DumpCheck, FailsOnOneFlippedPayloadByte) {
  Simulation sim(2, 2, 2, 16, closed_box());
  cloud_ic(sim.grid());
  sim.step();
  mpcf::compression::CompressionParams p;
  p.quantity = mpcf::Q_G;
  p.eps = 2.3e-3f;
  p.mode = mpcf::wavelet::ThresholdMode::kGuaranteed;
  p.workers = 2;
  const std::string path = out_dir("dump") + "/G.cq";
  mpcf::compression::dump_quantity_pipelined(sim.grid(), p, path);
  EXPECT_EQ(ledger::check_dump(path, sim.grid(), p), "");

  // Stream blobs sit at the end of the file, after the aligned directory.
  const auto size = fs::file_size(path);
  ASSERT_GT(size, 4096u + 16u);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 16));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(size - 16));
    f.write(&byte, 1);
  }
  EXPECT_NE(ledger::check_dump(path, sim.grid(), p), "");
}

TEST(DumpCheck, FailsWhenTheLiveFieldMovedBeyondEps) {
  Simulation sim(2, 2, 2, 16, closed_box());
  cloud_ic(sim.grid());
  mpcf::compression::CompressionParams p;
  p.quantity = mpcf::Q_G;
  p.eps = 2.3e-3f;
  p.mode = mpcf::wavelet::ThresholdMode::kGuaranteed;
  const std::string path = out_dir("dump_eps") + "/G.cq";
  mpcf::compression::dump_quantity_pipelined(sim.grid(), p, path);
  double err = -1;
  EXPECT_EQ(ledger::check_dump(path, sim.grid(), p, &err), "");
  EXPECT_LE(err, p.eps);
  sim.grid().block(3).data()[100].G += 2 * p.eps;
  EXPECT_NE(ledger::check_dump(path, sim.grid(), p), "");
}

TEST(ConservationCheck, FailsOnOnePerturbedCell) {
  Simulation sim(2, 2, 2, 16, closed_box());
  cloud_ic(sim.grid());
  const ledger::Totals before = ledger::conserved_totals(sim.grid());
  for (int i = 0; i < 3; ++i) sim.step();
  // 32^3 cells, 3 steps: a tolerance of 1.9e-7.
  const double tol = ledger::conservation_tolerance(32 * 32 * 32, 3);
  EXPECT_EQ(ledger::check_conserved(before, ledger::conserved_totals(sim.grid()), tol), "");
  EXPECT_EQ(ledger::check_physical(sim.grid()), "");

  // 1 % of the liquid density in one cell: ~3e-7 of this grid's mass.
  sim.grid().block(5).data()[321].rho += 10.0f;
  EXPECT_NE(ledger::check_conserved(before, ledger::conserved_totals(sim.grid()), tol), "");
}

TEST(PhysicalCheck, FailsOnNonFiniteOrNonPositiveCells) {
  Grid g(2, 2, 2, 16, 1e-3);
  cloud_ic(g);
  EXPECT_EQ(ledger::check_physical(g), "");
  g.block(1).data()[7].rho = -1;
  EXPECT_NE(ledger::check_physical(g), "");
  g.block(1).data()[7].rho = 1;
  g.block(6).data()[9].E = NAN;
  EXPECT_NE(ledger::check_physical(g), "");
}

TEST(NodeVsClusterCheck, FailsWhenOneRankIsAltered) {
  const mpcf::cluster::CartTopology topo(2, 2, 2);
  Simulation single(2, 2, 2, 16, closed_box());
  cloud_ic(single.grid());
  mpcf::cluster::ClusterSimulation cluster(2, 2, 2, 16, topo, closed_box());
  cluster.scatter(single.grid());
  for (int i = 0; i < 2; ++i) EXPECT_EQ(single.step(), cluster.step());

  Grid gathered(2, 2, 2, 16, 1e-3);
  cluster.gather(gathered);
  EXPECT_EQ(ledger::compare_grids(gathered, single.grid()), "");

  cluster.rank_sim(5).grid().block(0).data()[17].E *= 1.0000001f;
  cluster.gather(gathered);
  EXPECT_NE(ledger::compare_grids(gathered, single.grid()), "");
}

TEST(RestartCheck, FailsWhenStepppedWithTheWrongClock) {
  const std::string path = out_dir("restart") + "/c.ckp";
  Simulation live(2, 2, 2, 16, closed_box());
  cloud_ic(live.grid());
  for (int i = 0; i < 2; ++i) live.step();
  mpcf::io::save_checkpoint(path, live);

  Simulation good(2, 2, 2, 16, closed_box());
  Simulation bad(2, 2, 2, 16, closed_box());
  mpcf::io::load_checkpoint(path, good);
  mpcf::io::load_checkpoint(path, bad);
  bad.restore_clock(bad.time() * (1 + 1e-12), bad.step_count());
  live.step();
  good.step();
  bad.step();

  EXPECT_EQ(ledger::compare_grids(good.grid(), live.grid()), "");
  EXPECT_EQ(ledger::compare_clock(good.time(), good.step_count(), live.time(), live.step_count()),
            "");
  EXPECT_EQ(ledger::state_digest(good.grid()), ledger::state_digest(live.grid()));
  EXPECT_NE(ledger::compare_clock(bad.time(), bad.step_count(), live.time(), live.step_count()),
            "");
}

TEST(DigestCheck, ChangesWithAnySingleBit) {
  Grid g(2, 2, 2, 16, 1e-3);
  cloud_ic(g);
  const ledger::Digest d0 = ledger::state_digest(g);
  mpcf::Real& v = g.block(2).data()[1000].rv;
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  bits ^= 1u;
  std::memcpy(&v, &bits, 4);
  EXPECT_FALSE(ledger::state_digest(g) == d0);
}

TEST(HaloCheck, GeometryCountMatchesTheMeasuredTraffic) {
  const mpcf::cluster::CartTopology topo(2, 2, 2);
  const auto periodic = mpcf::BoundaryConditions::all(mpcf::BCType::kPeriodic);
  // 6 faces x 3 ghost layers x 64^2 cells x 7 quantities x 4 B x 3 stages x
  // 8 ranks for the 4^3 x 32^3 periodic grid.
  const ledger::HaloTraffic big = ledger::expected_halo_traffic(4, 4, 4, 32, topo, periodic);
  EXPECT_EQ(big.messages, 144u);
  EXPECT_EQ(big.bytes, 49545216u);

  mpcf::cluster::ClusterSimulation cluster(2, 2, 2, 16, topo, closed_box());
  Grid g(2, 2, 2, 16, 1e-3);
  cloud_ic(g);
  cluster.scatter(g);
  cluster.step();
  const auto s0 = cluster.comm().stats();
  cluster.step();
  const auto s1 = cluster.comm().stats();
  const ledger::HaloTraffic want = ledger::expected_halo_traffic(2, 2, 2, 16, topo, periodic);
  EXPECT_EQ(s1.messages - s0.messages, want.messages);
  EXPECT_EQ(s1.bytes - s0.bytes, want.bytes);
  // Walls on every face: corner ranks of a 2^3 topology talk across three
  // faces only.
  const ledger::HaloTraffic walls = ledger::expected_halo_traffic(
      2, 2, 2, 16, topo, mpcf::BoundaryConditions::all(mpcf::BCType::kWall));
  EXPECT_EQ(walls.messages, want.messages / 2);
}

TEST(OperationAccounting, CountsFailedOperations) {
  const std::string dir = kOut + "/failed_ops";
  fs::remove_all(dir);
  Simulation live(2, 2, 2, 16, closed_box());
  cloud_ic(live.grid());
  live.step();
  // A checkpoint directory that holds only a corrupt file.
  mpcf::io::CheckpointRotator rot(dir, "c", 2);
  const std::string path = rot.save(live);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const auto mid = static_cast<std::streamoff>(fs::file_size(path) / 2);
    f.seekg(mid);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(mid);
    f.write(&byte, 1);
  }

  ledger::RunResult r;
  EXPECT_TRUE(ledger::attempt(r, "step", [&] { live.step(); }));
  EXPECT_EQ(r.failed, 0);
  EXPECT_TRUE(r.correct);

  Simulation fresh(2, 2, 2, 16, closed_box());
  EXPECT_FALSE(ledger::attempt(r, "restart", [&] { return rot.load_latest_valid(fresh); }));
  EXPECT_EQ(r.failed, 1);
  EXPECT_FALSE(r.correct);

  EXPECT_FALSE(ledger::attempt(r, "checkpoint", [&] {
    mpcf::io::save_checkpoint(dir + "/no/such/dir/c.ckp", live);
  }));
  EXPECT_EQ(r.failed, 2);
  ASSERT_EQ(r.failures.size(), 2u);
  EXPECT_EQ(r.failures[0].rfind("restart failed", 0), 0u) << r.failures[0];
}

class SmokeRun : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(SmokeRun, CompletesCorrectWithEveryMetric) {
  ledger::RunConfig cfg;
  cfg.workload = std::get<0>(GetParam());
  cfg.trace = std::get<1>(GetParam());
  cfg.smoke = true;
  cfg.seed = 3;
  cfg.threads = 2;
  cfg.out_dir = kOut;
  const ledger::RunResult r = ledger::run_workload(cfg);
  for (const auto& f : r.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(r.correct);
  EXPECT_GT(r.attempted, 0);
  EXPECT_EQ(r.failed, 0);
  std::set<std::string> names;
  for (const auto& m : r.metrics) {
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    if (!cfg.trace) {
      EXPECT_GT(m.value, 0) << m.name;
    }
  }
  EXPECT_EQ(names.size(), cfg.trace ? 43u : 9u);
  omp_set_num_threads(1);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SmokeRun,
    ::testing::Combine(::testing::Values("node_step", "cluster_step", "io_cycle"),
                       ::testing::Bool()));

}  // namespace
