// Correctness checks of the ledger workloads. Each check returns an empty
// string when it holds and a one-line reason when it does not; none compares
// against a stored copy of earlier output. The checks hold the properties
// the method must have (conservation in a closed box, physical states,
// lossless restart, error-bounded dumps) and totals reached by independent
// paths (one rank against many, message counts from the decomposition's
// geometry).
#pragma once

#include <cstdint>
#include <string>

#include "cluster/topology.h"
#include "compression/compressor.h"
#include "grid/boundary.h"
#include "grid/grid.h"

namespace ledger {

/// Conserved totals of a grid, summed in double in block-then-cell order.
struct Totals {
  double mass = 0;
  double energy = 0;
};
[[nodiscard]] Totals conserved_totals(const mpcf::Grid& g);

/// Relative change of mass and total energy between two sets of totals.
struct Drift {
  double mass = 0;
  double energy = 0;
};
[[nodiscard]] Drift conservation_drift(const Totals& before, const Totals& after);

/// Relative drift of mass and total energy allowed after `steps` steps on
/// `cells` cells. The float32 round-off of the updates adds up like a random
/// walk: on the three workloads (64^3 to 256^3 cells, 8 to 14 steps) the
/// measured drift was 2.6e-6 to 8.5e-6 times sqrt(steps / cells), within
/// 15% from seed to seed, and the tolerance, 2e-5 times sqrt(steps / cells),
/// is over twice the largest.
[[nodiscard]] double conservation_tolerance(double cells, long steps);

/// Mass and total energy of `after` equal those of `before` to `rel_tol`.
[[nodiscard]] std::string check_conserved(const Totals& before, const Totals& after,
                                          double rel_tol);

/// Every quantity of every cell is finite and every density is positive.
[[nodiscard]] std::string check_physical(const mpcf::Grid& g);

/// The two grids have the same shape and bitwise-equal cell data.
[[nodiscard]] std::string compare_grids(const mpcf::Grid& a, const mpcf::Grid& b);

/// Two simulation clocks are exactly equal.
[[nodiscard]] std::string compare_clock(double time_a, long steps_a, double time_b,
                                        long steps_b);

/// 128-bit digest of a grid's cell data (two independent 64-bit lanes); a
/// change of any bit changes it. Used where a full second copy of a large
/// state would not fit beside the live one.
struct Digest {
  std::uint64_t a = 0, b = 0;
  bool operator==(const Digest&) const = default;
};
[[nodiscard]] Digest state_digest(const mpcf::Grid& g);

/// Halo traffic of one step (three RK stages), computed from the geometry
/// of the decomposition: one message per rank face that has a neighbour,
/// each a kGhosts-deep slab of the face's cells with every quantity.
struct HaloTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] HaloTraffic expected_halo_traffic(int gbx, int gby, int gbz, int bs,
                                                const mpcf::cluster::CartTopology& topo,
                                                const mpcf::BoundaryConditions& bc);

/// Reads the dump at `path` back from disk, decodes it and checks that every
/// cell lies within params.eps of the same quantity gathered from `live`.
/// `max_error` (optional) receives the largest absolute error found.
[[nodiscard]] std::string check_dump(const std::string& path, const mpcf::Grid& live,
                                     const mpcf::compression::CompressionParams& params,
                                     double* max_error = nullptr);

}  // namespace ledger
