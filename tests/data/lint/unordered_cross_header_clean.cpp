#include "sim/stage_circuit.hpp"
#include <vector>
namespace nbuf::signoff {
// Walk the ordered node list and look each node up: point lookups into
// the unordered map are deterministic.
double sum_peaks(const sim::StageCircuit& c, const std::vector<double>& v) {
  double sum = 0.0;
  for (const int node : c.nodes) {
    const auto it = c.sim_node_of.find(node);
    if (it != c.sim_node_of.end()) sum += v[it->second] * node;
  }
  return sum;
}
}  // namespace nbuf::signoff
