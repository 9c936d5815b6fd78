#include "lib/buffer.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/units.hpp"

namespace nbuf::lib {

BufferLibrary::BufferLibrary(std::vector<BufferType> types) {
  for (auto& t : types) add(std::move(t));
}

BufferId BufferLibrary::add(BufferType type) {
  NBUF_EXPECTS_MSG(!type.name.empty(), "buffer type needs a name");
  NBUF_EXPECTS(type.resistance > 0.0);
  NBUF_EXPECTS(type.input_cap > 0.0);
  NBUF_EXPECTS(type.intrinsic_delay >= 0.0);
  NBUF_EXPECTS(type.noise_margin > 0.0);
  for (const auto& existing : types_)
    NBUF_EXPECTS_MSG(existing.name != type.name, "duplicate buffer name");
  types_.push_back(std::move(type));
  return BufferId{static_cast<BufferId::underlying_type>(types_.size() - 1)};
}

const BufferType& BufferLibrary::at(BufferId id) const {
  NBUF_EXPECTS(id.valid() && id.value() < types_.size());
  return types_[id.value()];
}

std::vector<BufferId> BufferLibrary::ids() const {
  std::vector<BufferId> out;
  out.reserve(types_.size());
  for (std::size_t i = 0; i < types_.size(); ++i)
    out.emplace_back(static_cast<BufferId::underlying_type>(i));
  return out;
}

std::optional<BufferId> BufferLibrary::find(std::string_view name) const {
  for (std::size_t i = 0; i < types_.size(); ++i)
    if (types_[i].name == name)
      return BufferId{static_cast<BufferId::underlying_type>(i)};
  return std::nullopt;
}

std::size_t BufferLibrary::inverting_count() const {
  std::size_t n = 0;
  for (const auto& t : types_)
    if (t.inverting) ++n;
  return n;
}

BufferId BufferLibrary::strongest() const {
  NBUF_EXPECTS_MSG(!types_.empty(), "empty buffer library");
  std::size_t best = 0;
  for (std::size_t i = 1; i < types_.size(); ++i) {
    // Resistance ties break on name so the choice survives any permutation
    // of the library (names are unique; ids are insertion-order dependent).
    if (types_[i].resistance < types_[best].resistance ||
        (types_[i].resistance == types_[best].resistance &&
         types_[i].name < types_[best].name))
      best = i;
  }
  return BufferId{static_cast<BufferId::underlying_type>(best)};
}

BufferLibrary default_library() {
  using namespace nbuf::units;
  // Geometric x1..x16 inverter ladder and x1..x24 buffer ladder. A buffer is
  // two cascaded inverters, so at equal drive strength it has slightly lower
  // output resistance seen as a stage but more intrinsic delay and input cap;
  // the numbers below follow that shape for a 0.25 µm-class, 1.8 V process.
  BufferLibrary lib;
  lib.add({"inv_x1", 1200.0 * ohm, 3.0 * fF, 18.0 * ps, 0.8 * V, true});
  lib.add({"inv_x2", 600.0 * ohm, 6.0 * fF, 16.0 * ps, 0.8 * V, true});
  lib.add({"inv_x4", 300.0 * ohm, 12.0 * fF, 15.0 * ps, 0.8 * V, true});
  lib.add({"inv_x8", 150.0 * ohm, 24.0 * fF, 14.0 * ps, 0.8 * V, true});
  lib.add({"inv_x16", 75.0 * ohm, 48.0 * fF, 13.0 * ps, 0.8 * V, true});
  lib.add({"buf_x1", 1100.0 * ohm, 3.5 * fF, 35.0 * ps, 0.8 * V, false});
  lib.add({"buf_x2", 550.0 * ohm, 7.0 * fF, 32.0 * ps, 0.8 * V, false});
  lib.add({"buf_x4", 280.0 * ohm, 14.0 * fF, 30.0 * ps, 0.8 * V, false});
  lib.add({"buf_x8", 140.0 * ohm, 28.0 * fF, 28.0 * ps, 0.8 * V, false});
  lib.add({"buf_x16", 70.0 * ohm, 56.0 * fF, 26.0 * ps, 0.8 * V, false});
  lib.add({"buf_x24", 45.0 * ohm, 84.0 * fF, 25.0 * ps, 0.8 * V, false});
  return lib;
}

BufferLibrary single_buffer_library() {
  using namespace nbuf::units;
  BufferLibrary lib;
  lib.add({"buf_x8", 140.0 * ohm, 28.0 * fF, 28.0 * ps, 0.8 * V, false});
  return lib;
}

BufferLibrary make_ladder_library(std::size_t types,
                                  double inverting_fraction) {
  using namespace nbuf::units;
  NBUF_EXPECTS(types >= 1);
  NBUF_EXPECTS(inverting_fraction >= 0.0 && inverting_fraction < 1.0);
  // Log-uniform interpolation between the default library's extremes, so a
  // 1-type ladder is a mid-strength gate and a 64-type ladder brackets the
  // paper's 11-type library with finer granularity.
  const double r_hi = 1200.0 * ohm, r_lo = 45.0 * ohm;
  const double c_lo = 3.0 * fF, c_hi = 84.0 * fF;
  const std::size_t n_inv = std::min(
      types - 1, static_cast<std::size_t>(
                     std::llround(inverting_fraction *
                                  static_cast<double>(types))));
  BufferLibrary out;
  for (std::size_t i = 0; i < types; ++i) {
    const double f = types == 1 ? 0.5
                                : static_cast<double>(i) /
                                      static_cast<double>(types - 1);
    // Bresenham spread: rung i is an inverter when the running quota
    // (i+1)*n_inv/types ticks over, so inverters interleave the ladder
    // instead of clustering at one end.
    const bool inverting =
        ((i + 1) * n_inv) / types > (i * n_inv) / types;
    BufferType t;
    t.resistance = r_hi * std::pow(r_lo / r_hi, f);
    t.input_cap = c_lo * std::pow(c_hi / c_lo, f);
    // Inverters are single stages: lower intrinsic delay than the two-stage
    // buffers of equal drive, both mildly improving with strength.
    t.intrinsic_delay =
        inverting ? (18.0 - 5.0 * f) * ps : (35.0 - 10.0 * f) * ps;
    t.noise_margin = 0.8 * V;
    t.inverting = inverting;
    t.name = (inverting ? "inv_g" : "buf_g") + std::to_string(i + 1);
    out.add(std::move(t));
  }
  return out;
}

}  // namespace nbuf::lib
