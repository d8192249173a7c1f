#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <vector>

#include "compression/codec.h"
#include "io/compressed_file.h"
#include "wavelet/interp_wavelet.h"

namespace ledger {

using mpcf::Cell;
using mpcf::Grid;

Totals conserved_totals(const Grid& g) {
  Totals t;
  for (int b = 0; b < g.block_count(); ++b) {
    const mpcf::Block& blk = g.block(b);
    const Cell* c = blk.data();
    for (std::size_t k = 0; k < blk.cells(); ++k) {
      t.mass += c[k].rho;
      t.energy += c[k].E;
    }
  }
  return t;
}

Drift conservation_drift(const Totals& before, const Totals& after) {
  return {std::abs(after.mass - before.mass) / std::abs(before.mass),
          std::abs(after.energy - before.energy) / std::abs(before.energy)};
}

double conservation_tolerance(double cells, long steps) {
  return 2e-5 * std::sqrt(static_cast<double>(steps) / cells);
}

std::string check_conserved(const Totals& before, const Totals& after, double rel_tol) {
  const auto [dm, de] = conservation_drift(before, after);
  if (!(dm <= rel_tol))
    return "mass drifted by " + std::to_string(dm) + " (relative), tolerance " +
           std::to_string(rel_tol);
  if (!(de <= rel_tol))
    return "total energy drifted by " + std::to_string(de) + " (relative), tolerance " +
           std::to_string(rel_tol);
  return {};
}

std::string check_physical(const Grid& g) {
  for (int b = 0; b < g.block_count(); ++b) {
    const mpcf::Block& blk = g.block(b);
    const Cell* c = blk.data();
    for (std::size_t k = 0; k < blk.cells(); ++k) {
      for (int q = 0; q < mpcf::kNumQuantities; ++q)
        if (!std::isfinite(c[k].q(q)))
          return "non-finite quantity " + std::to_string(q) + " in block " +
                 std::to_string(b) + " cell " + std::to_string(k);
      if (!(c[k].rho > 0))
        return "non-positive density in block " + std::to_string(b) + " cell " +
               std::to_string(k);
    }
  }
  return {};
}

std::string compare_grids(const Grid& a, const Grid& b) {
  if (a.blocks_x() != b.blocks_x() || a.blocks_y() != b.blocks_y() ||
      a.blocks_z() != b.blocks_z() || a.block_size() != b.block_size())
    return "grid shapes differ";
  for (int blk = 0; blk < a.block_count(); ++blk) {
    const mpcf::Block& x = a.block(blk);
    const mpcf::Block& y = b.block(blk);
    if (std::memcmp(x.data(), y.data(), x.cells() * sizeof(Cell)) == 0) continue;
    for (std::size_t k = 0; k < x.cells(); ++k)
      for (int q = 0; q < mpcf::kNumQuantities; ++q)
        if (std::memcmp(&x.data()[k].q(q), &y.data()[k].q(q), sizeof(mpcf::Real)) != 0)
          return "states differ at block " + std::to_string(blk) + " cell " +
                 std::to_string(k) + " quantity " + std::to_string(q);
  }
  return {};
}

std::string compare_clock(double time_a, long steps_a, double time_b, long steps_b) {
  if (std::memcmp(&time_a, &time_b, sizeof(double)) != 0 || steps_a != steps_b) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "clocks differ: t=%.17g step %ld vs t=%.17g step %ld",
                  time_a, steps_a, time_b, steps_b);
    return buf;
  }
  return {};
}

Digest state_digest(const Grid& g) {
  // Two multiply-xorshift lanes over the 32-bit words of the cell data.
  Digest d{0x9E3779B97F4A7C15ull, 0xC2B2AE3D27D4EB4Full};
  for (int b = 0; b < g.block_count(); ++b) {
    const mpcf::Block& blk = g.block(b);
    const std::size_t words = blk.cells() * mpcf::kNumQuantities;
    const auto* p = reinterpret_cast<const unsigned char*>(blk.data());
    for (std::size_t i = 0; i < words; ++i) {
      std::uint32_t w;
      std::memcpy(&w, p + 4 * i, 4);
      d.a = (d.a ^ w) * 0x100000001B3ull;
      d.a ^= d.a >> 29;
      d.b = (d.b + w + i) * 0xFF51AFD7ED558CCDull;
      d.b ^= d.b >> 31;
    }
  }
  return d;
}

HaloTraffic expected_halo_traffic(int gbx, int gby, int gbz, int bs,
                                  const mpcf::cluster::CartTopology& topo,
                                  const mpcf::BoundaryConditions& bc) {
  const int cells[3] = {gbx * bs / topo.rx, gby * bs / topo.ry, gbz * bs / topo.rz};
  HaloTraffic t;
  for (int r = 0; r < topo.size(); ++r)
    for (int axis = 0; axis < 3; ++axis)
      for (int side = 0; side < 2; ++side) {
        const bool periodic = bc.face[axis][side] == mpcf::BCType::kPeriodic;
        if (topo.neighbor(r, axis, side, periodic) < 0) continue;
        const std::uint64_t face =
            static_cast<std::uint64_t>(cells[(axis + 1) % 3]) * cells[(axis + 2) % 3];
        t.messages += 1;
        t.bytes += face * mpcf::kGhosts * mpcf::kNumQuantities * sizeof(mpcf::Real);
      }
  // One exchange per Runge-Kutta stage.
  t.messages *= 3;
  t.bytes *= 3;
  return t;
}

std::string check_dump(const std::string& path, const Grid& live,
                       const mpcf::compression::CompressionParams& params,
                       double* max_error) {
  // Decoded stream by stream and compared block by block, so the check holds
  // no copy of the whole field beside the live state (peak_rss_mib stays the
  // program's).
  const int bs = live.block_size();
  const std::size_t cube_floats = static_cast<std::size_t>(bs) * bs * bs;
  std::vector<float> coeffs, cube(cube_floats);
  std::vector<char> seen(static_cast<std::size_t>(live.block_count()), 0);
  double worst = 0;
  try {
    const mpcf::compression::CompressedQuantity cq = mpcf::io::read_compressed(path);
    if (cq.bx != live.blocks_x() || cq.by != live.blocks_y() || cq.bz != live.blocks_z() ||
        cq.block_size != bs)
      return "dump " + path + " has the wrong shape";
    const mpcf::compression::Codec& codec = mpcf::compression::codec_for(cq.coder);
    for (std::size_t si = 0; si < cq.streams.size(); ++si) {
      const auto& stream = cq.streams[si];
      if (stream.block_ids.empty()) continue;
      coeffs.resize(stream.block_ids.size() * cube_floats);
      codec.decode(stream.data.data(), stream.data.size(), stream.raw_bytes, coeffs.data(),
                   coeffs.size(), si);
      for (std::size_t k = 0; k < stream.block_ids.size(); ++k) {
        const std::uint32_t id = stream.block_ids[k];
        if (id >= seen.size() || seen[id]++ != 0)
          return "dump " + path + " holds block " + std::to_string(id) + " twice or out of range";
        float* decoded = coeffs.data() + k * cube_floats;
        mpcf::wavelet::inverse_3d(mpcf::FieldView3D<float>(decoded, bs, bs, bs), cq.levels);
        mpcf::compression::gather_block_quantity(live.block(static_cast<int>(id)), bs, params,
                                                 cube.data());
        for (std::size_t i = 0; i < cube_floats; ++i) {
          const double err = std::abs(static_cast<double>(decoded[i]) - cube[i]);
          if (!(err <= worst)) worst = std::isnan(err) ? INFINITY : err;
        }
      }
    }
  } catch (const std::exception& e) {
    return "dump " + path + " unreadable: " + e.what();
  }
  if (std::find(seen.begin(), seen.end(), 0) != seen.end())
    return "dump " + path + " misses a block";
  if (max_error != nullptr) *max_error = worst;
  if (!(worst <= params.eps))
    return "dump " + path + " deviates from the live field by " + std::to_string(worst) +
           " > eps " + std::to_string(params.eps);
  return {};
}

}  // namespace ledger
