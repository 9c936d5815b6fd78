// nbuf_gen — exports the synthetic Section-V testbench as .net files so the
// workload can be inspected, rerun with nbuf_cli, or consumed by other
// tools.
//
//   nbuf_gen <output-dir> [--count N] [--seed S]
//
// Writes net0000.net .. netNNNN.net plus an index.tsv with per-net summary
// columns (sinks, wirelength µm, total cap fF, metric violation yes/no).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "io/netfile.hpp"
#include "netgen/netgen.hpp"
#include "noise/devgan.hpp"
#include "opt_parse.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace nbuf;
  using namespace nbuf::units;

  std::string out_dir;
  netgen::TestbenchOptions opt;
  opt.net_count = 500;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--count" && i + 1 < argc) {
      if (!cli::parse_count(argv[++i], "--count", opt.net_count)) return 2;
    } else if (a == "--seed" && i + 1 < argc) {
      if (!cli::parse_count64(argv[++i], "--seed", opt.seed)) return 2;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return 2;
    } else if (out_dir.empty()) {
      out_dir = a;
    } else {
      std::fprintf(stderr,
                   "usage: %s <output-dir> [--count N] [--seed S]\n",
                   argv[0]);
      return 2;
    }
  }
  if (out_dir.empty()) {
    std::fprintf(stderr, "usage: %s <output-dir> [--count N] [--seed S]\n",
                 argv[0]);
    return 2;
  }

  std::filesystem::create_directories(out_dir);
  const auto library = lib::default_library();
  const auto nets = netgen::generate_testbench(library, opt);

  std::ofstream index(out_dir + "/index.tsv");
  index << "file\tsinks\twirelength_um\ttotal_cap_ff\tmetric_violation\n";
  std::size_t violating = 0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    char fname[32];
    std::snprintf(fname, sizeof fname, "net%04zu.net", i);
    io::write_net_file(out_dir + "/" + fname, nets[i].name, nets[i].tree,
                       {}, library);
    const bool bad = !noise::analyze_unbuffered(nets[i].tree).clean();
    violating += bad;
    index << fname << '\t' << nets[i].sink_count << '\t'
          << nets[i].wirelength << '\t' << nets[i].total_cap / fF << '\t'
          << (bad ? "yes" : "no") << '\n';
  }
  std::printf("wrote %zu nets to %s (%zu with metric violations)\n",
              nets.size(), out_dir.c_str(), violating);
  return 0;
}
