#include "sim/stage_circuit.hpp"
#include "core/not_in_the_tree.hpp"
#include <vector>
namespace nbuf::signoff {
double sum_peaks(const sim::StageCircuit& c, const std::vector<double>& v) {
  double sum = 0.0;
  for (const auto& [node, idx] : c.sim_node_of) sum += v[idx] * node;
  return sum;
}
}  // namespace nbuf::signoff
