#pragma once
#include <unordered_map>
#include <vector>
namespace nbuf::sim {
struct StageCircuit {
  std::vector<int> nodes;
  std::unordered_map<int, int> sim_node_of;
};
}  // namespace nbuf::sim
