// First test coverage for the nbuf_cli entry points (tools/cli_app.cpp):
// runs the real argv-driven pipelines in-process on examples/nets/*.net and
// on netgen batches, asserting exit status and parseable output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_app.hpp"
#include "serve/server.hpp"
#include "serve_app.hpp"

namespace {

std::string example(const char* name) {
  return std::string(NBUF_EXAMPLES_DIR) + "/" + name;
}

struct CliRun {
  int exit_code = 0;
  std::string out;  // captured stdout (stderr is left alone)
};

CliRun run_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "nbuf_cli");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  CliRun r;
  r.exit_code =
      nbuf::cli::cli_main(static_cast<int>(argv.size()), argv.data());
  r.out = testing::internal::GetCapturedStdout();
  return r;
}

// The numeric value following `prefix` on the first line containing it;
// fails the test when absent.
double number_after(const std::string& out, const std::string& prefix) {
  const auto pos = out.find(prefix);
  EXPECT_NE(pos, std::string::npos) << "missing '" << prefix << "' in:\n"
                                    << out;
  if (pos == std::string::npos) return 0.0;
  return std::stod(out.substr(pos + prefix.size()));
}

TEST(Cli, BuffOptCleansLongTwoPin) {
  const CliRun r = run_cli({example("long_two_pin.net")});
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("buffopt: inserted"), std::string::npos) << r.out;
  EXPECT_GE(number_after(r.out, "buffopt: inserted"), 1.0);
  // "noise after:" reports zero violations for a clean result.
  EXPECT_EQ(number_after(r.out, "noise after:"), 0.0);
}

TEST(Cli, AnalyzeReportsBothEngines) {
  const CliRun r =
      run_cli({example("explicit_wires.net"), "--mode", "analyze"});
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("devgan metric:"), std::string::npos);
  EXPECT_NE(r.out.find("elmore timing:"), std::string::npos);
  EXPECT_EQ(number_after(r.out, "devgan metric:"), 0.0);
}

TEST(Cli, AnalyzeFlagsUnbufferedViolations) {
  // The same net that buffopt fixes must report violations untreated.
  const CliRun r =
      run_cli({example("long_two_pin.net"), "--mode", "analyze"});
  EXPECT_EQ(r.exit_code, 1) << r.out;
  EXPECT_GE(number_after(r.out, "devgan metric:"), 1.0);
}

TEST(Cli, NoiseModeRunsAlgorithm2) {
  const CliRun r = run_cli({example("control_tree.net"), "--mode", "noise"});
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("algorithm 2: inserted"), std::string::npos);
}

TEST(Cli, DelayOptWithSizingReportsWidenedWires) {
  const CliRun r = run_cli({example("long_two_pin.net"), "--mode",
                            "delayopt", "--max-buffers", "3",
                            "--wire-sizing"});
  EXPECT_NE(r.out.find("delayopt: inserted"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("timing after:"), std::string::npos);
}

TEST(Cli, WritesReadableOutputFile) {
  const std::string out_file = testing::TempDir() + "test_tools_out.net";
  const CliRun w = run_cli({example("long_two_pin.net"), "-o", out_file});
  EXPECT_EQ(w.exit_code, 0) << w.out;
  EXPECT_NE(w.out.find("wrote " + out_file), std::string::npos);
  const CliRun r = run_cli({out_file, "--mode", "analyze"});
  EXPECT_EQ(r.exit_code, 0) << r.out;  // buffered net analyzes clean
  std::remove(out_file.c_str());
}

TEST(Cli, UsageAndInputErrorsExitTwo) {
  EXPECT_EQ(run_cli({}).exit_code, 2);
  EXPECT_EQ(run_cli({example("long_two_pin.net"), "--mode", "bogus"})
                .exit_code,
            2);
  EXPECT_EQ(run_cli({example("long_two_pin.net"), "--frobnicate"})
                .exit_code,
            2);
  EXPECT_EQ(run_cli({"/nonexistent/definitely_missing.net"}).exit_code, 2);
}

TEST(Cli, MalformedNumericOptionsExitTwo) {
  // std::stoul would wrap "-5" to a huge count and std::stod would throw
  // out of main on "abc"; both must instead be usage errors (exit 2).
  const std::string net = example("long_two_pin.net");
  EXPECT_EQ(run_cli({net, "--max-buffers", "-5"}).exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({net, "--max-buffers", "abc"}).exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({net, "--max-buffers", "3x"}).exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({net, "--max-buffers", "0"}).exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({net, "--segment", "abc"}).exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({net, "--segment", "nan"}).exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({net, "--segment", "-100"}).exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({net, "--segment", "0"}).exit_code,
            nbuf::cli::kExitUsage);
}

TEST(Cli, BatchNetgenReportsThroughputAndStats) {
  const CliRun r = run_cli({"batch", "--netgen", "5", "--seed", "21",
                            "--threads", "2", "--stats"});
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("batch: 5 nets, 2 thread(s), mode buffopt"),
            std::string::npos)
      << r.out;
  EXPECT_GT(number_after(r.out, "throughput: "), 0.0);
  EXPECT_NE(r.out.find("noise after:"), std::string::npos);
  EXPECT_NE(r.out.find("timing after:"), std::string::npos);
  EXPECT_NE(r.out.find("vgstats: candidates_generated "), std::string::npos);
}

TEST(Cli, BatchDelayOptMode) {
  const CliRun r = run_cli({"batch", "--netgen", "3", "--seed", "2",
                            "--mode", "delayopt", "--max-buffers", "6"});
  // DelayOpt ignores noise, so the exit code may be 0 or 1; the run itself
  // must complete and report.
  EXPECT_LE(r.exit_code, 1) << r.out;
  EXPECT_NE(r.out.find("mode delayopt"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("solutions:"), std::string::npos);
}

TEST(Cli, BatchUsageErrors) {
  // No workload source.
  EXPECT_EQ(run_cli({"batch"}).exit_code, 2);
  // Both sources at once.
  EXPECT_EQ(run_cli({"batch", "--netgen", "3", "--dir", "/tmp"}).exit_code,
            2);
  // Directory that does not exist.
  EXPECT_EQ(run_cli({"batch", "--dir", "/nonexistent/nets"}).exit_code, 2);
  // Unknown mode.
  EXPECT_EQ(
      run_cli({"batch", "--netgen", "3", "--mode", "bogus"}).exit_code, 2);
  // Negative or non-numeric counts must not wrap via stoul.
  EXPECT_EQ(run_cli({"batch", "--netgen", "-5"}).exit_code, 2);
  EXPECT_EQ(run_cli({"batch", "--netgen", "abc"}).exit_code, 2);
  EXPECT_EQ(run_cli({"batch", "--netgen", "3", "--seed", "-1"}).exit_code,
            2);
  EXPECT_EQ(
      run_cli({"batch", "--netgen", "3", "--threads", "-2"}).exit_code, 2);
  EXPECT_EQ(
      run_cli({"batch", "--netgen", "3", "--max-buffers", "-1"}).exit_code,
      2);
  EXPECT_EQ(run_cli({"batch", "--netgen", "3", "--segment", "-10"})
                .exit_code,
            2);
}

// The nbuf_serve daemon's own argv parsing (tools/serve_app.cpp), driven
// through the same opt_parse.hpp helpers nbuf_cli uses.
int run_serve_main(std::vector<std::string> args) {
  args.insert(args.begin(), "nbuf_serve");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return nbuf::cli::serve_main(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ServeDaemonUsageErrorsExitTwo) {
  using nbuf::cli::kExitUsage;
  EXPECT_EQ(run_serve_main({"--port", "abc"}), kExitUsage);
  EXPECT_EQ(run_serve_main({"--port", "70000"}), kExitUsage);
  EXPECT_EQ(run_serve_main({"--port", "-1"}), kExitUsage);
  EXPECT_EQ(run_serve_main({"--port"}), kExitUsage);  // missing value
  EXPECT_EQ(run_serve_main({"--threads", "x"}), kExitUsage);
  EXPECT_EQ(run_serve_main({"--segment", "0"}), kExitUsage);
  EXPECT_EQ(run_serve_main({"--segment", "-5"}), kExitUsage);
  EXPECT_EQ(run_serve_main({"--segment", "nan"}), kExitUsage);
  EXPECT_EQ(run_serve_main({"--frobnicate"}), kExitUsage);
}

TEST(Cli, ServeClientUsageErrorsExitTwo) {
  using nbuf::cli::kExitUsage;
  // Exactly one of --port / --unix is required.
  EXPECT_EQ(run_cli({"serve-client"}).exit_code, kExitUsage);
  EXPECT_EQ(run_cli({"serve-client", "--port", "9", "--unix", "/tmp/x"})
                .exit_code,
            kExitUsage);
  // Port 0, malformed, or out-of-range ports are usage errors, not wraps.
  EXPECT_EQ(run_cli({"serve-client", "--port", "0"}).exit_code, kExitUsage);
  EXPECT_EQ(run_cli({"serve-client", "--port", "abc"}).exit_code,
            kExitUsage);
  EXPECT_EQ(run_cli({"serve-client", "--port", "70000"}).exit_code,
            kExitUsage);
  EXPECT_EQ(run_cli({"serve-client", "--port", "-1"}).exit_code,
            kExitUsage);
  EXPECT_EQ(run_cli({"serve-client", "--port", "9", "--frobnicate"})
                .exit_code,
            kExitUsage);
  // Unreadable script file (checked before connecting).
  EXPECT_EQ(run_cli({"serve-client", "--port", "9", "--script",
                     "/nonexistent/script.txt"})
                .exit_code,
            kExitUsage);
  // Connect failure with a well-formed command line.
  const std::string empty_script = testing::TempDir() + "serve_empty.txt";
  std::ofstream(empty_script).close();
  EXPECT_EQ(run_cli({"serve-client", "--unix", "/nonexistent/nbuf.sock",
                     "--script", empty_script})
                .exit_code,
            kExitUsage);
  std::remove(empty_script.c_str());
}

TEST(Cli, ServeClientDrivesFullSessionAgainstLiveServer) {
  nbuf::serve::Server server;  // ephemeral port, defaults otherwise
  server.start();
  const std::string script_file = testing::TempDir() + "serve_script.txt";
  {
    std::ofstream s(script_file);
    s << "# exercised by test_tools against an in-process server\n"
      << "load_net " << example("long_two_pin.net") << " 400\n"
      << "optimize long_two_pin max_buffers 4\n"
      << "perturb long_two_pin scale_wire 2 1.3 1.1 0.9\n"
      << "perturb_full long_two_pin scale_wire 2 1.1 1.0 1.0\n"
      << "signoff long_two_pin\n"
      << "stats\n";
  }
  const CliRun r = run_cli({"serve-client", "--port",
                            std::to_string(server.port()), "--script",
                            script_file});
  EXPECT_EQ(r.exit_code, nbuf::cli::kExitClean) << r.out;
  EXPECT_NE(r.out.find("LOAD_NET id=1"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("ok net long_two_pin"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("OPTIMIZE id=2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("PERTURB id=3"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("SIGNOFF id=5"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("requests 6"), std::string::npos) << r.out;
  std::remove(script_file.c_str());
  server.stop();
}

TEST(Cli, ServeClientErrorFrameExitsOne) {
  nbuf::serve::Server server;
  server.start();
  const std::string script_file = testing::TempDir() + "serve_ghost.txt";
  {
    std::ofstream s(script_file);
    s << "optimize ghost\n";
  }
  const CliRun r = run_cli({"serve-client", "--port",
                            std::to_string(server.port()), "--script",
                            script_file});
  EXPECT_EQ(r.exit_code, nbuf::cli::kExitViolations) << r.out;
  EXPECT_NE(r.out.find("ERROR id=1"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("error bad_state:"), std::string::npos) << r.out;
  std::remove(script_file.c_str());
  server.stop();
}

TEST(Cli, SignoffCleanWorkloadExitsZero) {
  const CliRun r = run_cli({"signoff", "--netgen", "6", "--seed", "7",
                            "--threads", "2"});
  EXPECT_EQ(r.exit_code, nbuf::cli::kExitClean) << r.out;
  EXPECT_NE(r.out.find("signoff: 6 nets"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("verdict: PASS"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("(bound held)"), std::string::npos) << r.out;
  EXPECT_GT(number_after(r.out, "pessimism ratio:"), 0.0);
}

TEST(Cli, SignoffViolationsExitOneNotTwo) {
  // One buffer in delayopt mode leaves noise violations on long nets; the
  // tool must report them via exit 1 — distinct from usage errors (2).
  const CliRun r = run_cli({"signoff", "--netgen", "10", "--seed", "3",
                            "--mode", "delayopt", "--max-buffers", "1"});
  EXPECT_EQ(r.exit_code, nbuf::cli::kExitViolations) << r.out;
  EXPECT_NE(r.out.find("verdict: FAIL"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("golden_noise"), std::string::npos) << r.out;
}

TEST(Cli, SignoffToleranceFlagsRelabelViolations) {
  // A noise grace voltage big enough to absorb every excursion flips the
  // FAIL run above to PASS without touching the measurements.
  const CliRun r = run_cli({"signoff", "--netgen", "10", "--seed", "3",
                            "--mode", "delayopt", "--max-buffers", "1",
                            "--tol-noise", "1800", "--tol-timing", "1e9"});
  EXPECT_EQ(r.exit_code, nbuf::cli::kExitClean) << r.out;
  EXPECT_NE(r.out.find("verdict: PASS"), std::string::npos) << r.out;
}

TEST(Cli, SignoffWritesJsonReport) {
  const std::string json_file = testing::TempDir() + "test_tools_signoff.json";
  const CliRun r = run_cli({"signoff", "--netgen", "4", "--seed", "7",
                            "--json", json_file});
  EXPECT_EQ(r.exit_code, nbuf::cli::kExitClean) << r.out;
  EXPECT_NE(r.out.find("wrote " + json_file), std::string::npos) << r.out;
  std::string json;
  {
    std::ifstream in(json_file);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    json = ss.str();
  }
  EXPECT_NE(json.find("\"schema\":\"nbuf-signoff-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"nets\":4"), std::string::npos);
  EXPECT_NE(json.find("\"pass\":true"), std::string::npos);
  std::remove(json_file.c_str());
}

TEST(Cli, SignoffUsageErrorsExitTwo) {
  // No workload source.
  EXPECT_EQ(run_cli({"signoff"}).exit_code, nbuf::cli::kExitUsage);
  // Unknown option.
  EXPECT_EQ(run_cli({"signoff", "--netgen", "3", "--frobnicate"}).exit_code,
            nbuf::cli::kExitUsage);
  // Signoff-only flags are rejected by plain batch.
  EXPECT_EQ(run_cli({"batch", "--netgen", "3", "--tol-noise", "5"})
                .exit_code,
            nbuf::cli::kExitUsage);
  // Unwritable JSON path.
  EXPECT_EQ(run_cli({"signoff", "--netgen", "2", "--json",
                     "/nonexistent/dir/report.json"})
                .exit_code,
            nbuf::cli::kExitUsage);
  // Out-of-range or malformed tolerances.
  EXPECT_EQ(run_cli({"signoff", "--netgen", "2", "--tol-noise", "-1"})
                .exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({"signoff", "--netgen", "2", "--tol-timing", "-0.5"})
                .exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({"signoff", "--netgen", "2", "--tol-bound", "-1e-3"})
                .exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({"signoff", "--netgen", "2", "--tol-noise", "abc"})
                .exit_code,
            nbuf::cli::kExitUsage);
  EXPECT_EQ(run_cli({"signoff", "--netgen", "2", "--tol-noise", "inf"})
                .exit_code,
            nbuf::cli::kExitUsage);
}

}  // namespace
