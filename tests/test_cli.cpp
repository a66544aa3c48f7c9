// Integration tests of the aptsim command-line tool: each sub-command must
// succeed and produce its expected artifacts. The binary path is injected
// by CMake as APTSIM_PATH.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dag/generator.hpp"
#include "dag/serialize.hpp"
#include "lut/lookup_table.hpp"
#include "util/csv.hpp"
#include "util/string_utils.hpp"

#ifndef APTSIM_GOLDEN_DIR
#define APTSIM_GOLDEN_DIR "tests/golden"
#endif

namespace {

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

int run_cli(const std::string& args, const std::string& stdout_file = "") {
  std::string cmd = std::string(APTSIM_PATH) + " " + args;
  if (!stdout_file.empty()) cmd += " > " + quoted(stdout_file);
  cmd += " 2>/dev/null";
  return std::system(cmd.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs aptsim with `args` and stdout discarded; returns the exit status
/// and leaves what it wrote to stderr in `err`.
int run_cli_stderr(const std::string& args, std::string& err) {
  const std::string file = ::testing::TempDir() + "/aptsim_stderr.txt";
  const std::string cmd = std::string(APTSIM_PATH) + " " + args +
                          " >/dev/null 2> " + quoted(file);
  const int status = std::system(cmd.c_str());
  err = slurp(file);
  std::filesystem::remove(file);
  return status;
}

TEST(Cli, NoArgumentsPrintsUsageAndSucceeds) {
  EXPECT_EQ(run_cli(""), 0);
}

TEST(Cli, UnknownCommandFails) {
  EXPECT_NE(run_cli("frobnicate"), 0);
}

TEST(Cli, UnknownOptionsFail) {
  // Every command (and the `generate` alias) fails on an option its
  // synopsis does not declare, on an option given twice, and on an option
  // the chosen mode would ignore, and names the option on stderr. `compare`
  // rejects a --type other than 1 or 2, as gen, run and sweep do.
  const struct {
    const char* args;
    const char* error;
  } cases[] = {
      {"gen --bogus 1", "'--bogus'"},
      {"generate --bogus 1", "'--bogus'"},
      {"run --policy met --bogus 1", "'--bogus'"},
      {"compare --bogus 1", "'--bogus'"},
      {"sweep --bogus 1", "'--bogus'"},
      {"stream --bogus 1", "'--bogus'"},
      {"families --bogus 1", "'--bogus'"},
      {"lut --bogus 1", "'--bogus'"},
      {"report --bogus 1", "'--bogus'"},
      {"policies --bogus 1", "'--bogus'"},
      {"version --bogus 1", "'--bogus'"},
      {"sweep --type 1 --lut p.csv", "'--lut'"},
      {"sweep --type 1 --rate 8", "'--rate'"},
      {"run --policy met --link-rate 1", "'--link-rate'"},
      {"run --policy met --seed 1 --seed 2", "--seed given twice"},
      {"run --policy met --graph g.txt --type 2",
       "--type cannot go together with --graph"},
      {"gen --graph g.txt --kernels 99",
       "--kernels cannot go together with --graph"},
      {"sweep --family layered --type 1",
       "--type cannot go together with --family"},
      {"sweep --type 1 --kernels 99 --graphs 2",
       "--graphs cannot go together with"},
      {"stream --family type1 --rate 0.001 --duration 1000 --policies met "
       "--trace-file x",
       "--trace-file cannot go together with --arrival poisson"},
      {"run --policy met --trace-every 2",
       "--trace-every cannot go together with an untraced run"},
      {"run --policy met --trace-max-events 10",
       "--trace-max-events cannot go together with an untraced run"},
      {"stream --family type1 --rate 0.001 --duration 1000 --policies met "
       "--trace-every 2",
       "--trace-every cannot go together with an untraced run"},
      {"stream --family type1 --rate 0.001 --duration 1000 --policies met "
       "--trace-max-events 10",
       "--trace-max-events cannot go together with an untraced run"},
      {"stream --family type1 --rate 0.001 --duration 1000 --policies met "
       "--hedge-quantile 0.9",
       "--hedge-quantile cannot go together with --hedging off"},
      {"stream --family type1 --rate 0.001 --duration 1000 --policies met "
       "--hedging off --hedge-factor 2",
       "--hedge-factor cannot go together with --hedging off"},
      {"stream --family type1 --rate 0.001 --duration 1000 --policies met "
       "--noise-seed 3",
       "--noise-seed cannot go together with noise off"},
      {"stream --family type1 --rate 0.001 --duration 1000 --policies met "
       "--noise-sigma 0 --tail-prob 0,0 --tail-mult 5",
       "--tail-mult cannot go together with noise off"},
      {"compare --type 3", "--type must be 1 or 2"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_NE(run_cli_stderr(c.args, err), 0) << c.args;
    EXPECT_NE(err.find(c.error), std::string::npos) << c.args << ": " << err;
  }
}

/// `aptsim <command> --help` and `-h`, also after other options, print the
/// command's synopsis (naming `option`) and nothing else, and exit 0.
void expect_command_help(const std::string& command,
                         const std::string& option,
                         const std::string& other_options) {
  const std::string out = ::testing::TempDir() + "/aptsim_help.txt";
  for (const std::string& flags :
       {command + " --help", command + " -h",
        command + " " + other_options + " --help"}) {
    ASSERT_EQ(run_cli(flags, out), 0) << flags;
    const std::string text = slurp(out);
    EXPECT_EQ(text.rfind("usage:\n  aptsim " + command + " ", 0), 0u)
        << flags << ":\n" << text;
    EXPECT_NE(text.find(option), std::string::npos) << flags;
    EXPECT_EQ(text.find("aptsim families"), std::string::npos) << flags;
  }
  std::filesystem::remove(out);
}

TEST(Cli, TopLevelHelpPrintsTheFullUsage) {
  const std::string out = ::testing::TempDir() + "/aptsim_help.txt";
  for (const std::string flags : {"--help", "-h"}) {
    ASSERT_EQ(run_cli(flags, out), 0) << flags;
    const std::string text = slurp(out);
    EXPECT_EQ(text.rfind("aptsim — ", 0), 0u) << flags << ":\n" << text;
    for (const std::string command :
         {"gen", "run", "compare", "sweep", "stream", "families", "lut",
          "report", "policies", "version"}) {
      EXPECT_NE(text.find("\n  aptsim " + command), std::string::npos)
          << flags << " lacks " << command;
    }
  }
  std::filesystem::remove(out);
}

TEST(Cli, RunHelpPrintsItsUsage) {
  expect_command_help("run", "--policy SPEC", "--policy met");
}

TEST(Cli, SweepHelpPrintsItsUsage) {
  expect_command_help("sweep", "--alphas", "--family type1 --jobs 2");
}

TEST(Cli, StreamHelpPrintsItsUsage) {
  expect_command_help("stream", "--max-apps N", "--policies met,apt:4");
}

TEST(Cli, LutPrintsTheTable) {
  const std::string out = ::testing::TempDir() + "/aptsim_lut.txt";
  ASSERT_EQ(run_cli("lut", out), 0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("| mm"), std::string::npos);
  EXPECT_NE(text.find("76293.945"), std::string::npos);
  std::filesystem::remove(out);
}

TEST(Cli, GenerateWritesALoadableGraph) {
  const std::string graph_file = ::testing::TempDir() + "/aptsim_graph.txt";
  ASSERT_EQ(run_cli("generate --type 2 --kernels 20 --seed 9 --out " +
                    quoted(graph_file)),
            0);
  const apt::dag::Dag graph = apt::dag::load_text_file(graph_file);
  EXPECT_EQ(graph.node_count(), 20u);
  std::filesystem::remove(graph_file);
}

TEST(Cli, RunOnAGeneratedGraphReportsMetrics) {
  const std::string graph_file = ::testing::TempDir() + "/aptsim_graph2.txt";
  ASSERT_EQ(run_cli("generate --type 1 --kernels 16 --seed 2 --out " +
                    quoted(graph_file)),
            0);
  const std::string out = ::testing::TempDir() + "/aptsim_run.txt";
  ASSERT_EQ(run_cli("run --policy apt:4 --graph " + quoted(graph_file) +
                        " --trace --gantt --analyze",
                    out),
            0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("makespan:"), std::string::npos);
  EXPECT_NE(text.find("lambda:"), std::string::npos);
  EXPECT_NE(text.find("End time:"), std::string::npos);   // trace
  EXPECT_NE(text.find("legend:"), std::string::npos);     // gantt
  EXPECT_NE(text.find("utilisation"), std::string::npos); // analysis
  std::filesystem::remove(graph_file);
  std::filesystem::remove(out);
}

TEST(Cli, RunExportsScheduleCsv) {
  const std::string csv = ::testing::TempDir() + "/aptsim_sched.csv";
  ASSERT_EQ(run_cli("run --policy met --type 1 --kernels 16 --seed 4 --csv " +
                    quoted(csv)),
            0);
  const auto table = apt::util::read_csv_file(csv);
  EXPECT_EQ(table.row_count(), 16u);
  EXPECT_NO_THROW(table.column_index("proc"));
  std::filesystem::remove(csv);
}

TEST(Cli, BadPolicySpecFailsCleanly) {
  EXPECT_NE(run_cli("run --policy not-a-policy --type 1 --kernels 16 "
                    "--seed 1"),
            0);
}

TEST(Cli, SweepRunsParallelAndExportsCsvAndJson) {
  const std::string csv = ::testing::TempDir() + "/aptsim_sweep.csv";
  const std::string json = ::testing::TempDir() + "/aptsim_sweep.json";
  const std::string out = ::testing::TempDir() + "/aptsim_sweep.txt";
  ASSERT_EQ(run_cli("sweep --type 1 --policies met --alphas 4 --rates 4 "
                    "--jobs 4 --csv " + quoted(csv) + " --json " +
                    quoted(json), out),
            0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("4 jobs"), std::string::npos);
  EXPECT_NE(text.find("APT(alpha=4.00)"), std::string::npos);
  const auto table = apt::util::read_csv_file(csv);
  EXPECT_EQ(table.row_count(), 20u);  // 10 graphs x (met + apt:4)
  EXPECT_NO_THROW(table.column_index("makespan_ms"));
  const std::string json_text = slurp(json);
  EXPECT_NE(json_text.find("\"cells\""), std::string::npos);
  EXPECT_NE(json_text.find("\"MET\""), std::string::npos);
  std::filesystem::remove(csv);
  std::filesystem::remove(json);
  std::filesystem::remove(out);
}

TEST(Cli, SweepOutputIsIdenticalAcrossJobCounts) {
  const std::string csv1 = ::testing::TempDir() + "/aptsim_sweep_j1.csv";
  const std::string csv8 = ::testing::TempDir() + "/aptsim_sweep_j8.csv";
  ASSERT_EQ(run_cli("sweep --type 2 --alphas 4 --rates 4 --jobs 1 --csv " +
                    quoted(csv1)),
            0);
  ASSERT_EQ(run_cli("sweep --type 2 --alphas 4 --rates 4 --jobs 8 --csv " +
                    quoted(csv8)),
            0);
  EXPECT_EQ(slurp(csv1), slurp(csv8));
  std::filesystem::remove(csv1);
  std::filesystem::remove(csv8);
}

TEST(Cli, GenWritesALoadableGraphForEveryFamily) {
  for (const char* family :
       {"type1", "type2", "layered", "forkjoin", "intree", "outtree",
        "cholesky"}) {
    const std::string graph_file =
        ::testing::TempDir() + "/aptsim_gen_" + family + ".txt";
    ASSERT_EQ(run_cli(std::string("gen --family ") + family +
                      " --kernels 24 --seed 3 --out " + quoted(graph_file)),
              0)
        << family;
    const apt::dag::Dag graph = apt::dag::load_text_file(graph_file);
    EXPECT_EQ(graph.node_count(), 24u) << family;
    std::filesystem::remove(graph_file);
  }
}

TEST(Cli, GenWithoutOutEmitsTheSerialisedGraph) {
  // Bare `gen` prints the text format, so it round-trips through a pipe.
  const std::string out = ::testing::TempDir() + "/aptsim_gen_pipe.txt";
  ASSERT_EQ(run_cli("gen --family intree --kernels 12 --seed 5", out), 0);
  const apt::dag::Dag graph = apt::dag::from_text(slurp(out));
  EXPECT_EQ(graph.node_count(), 12u);
  EXPECT_EQ(graph.edge_count(), 11u);
  std::filesystem::remove(out);
}

TEST(Cli, GenFromAGraphFileNamesTheFile) {
  // A --graph file has no family or type: its summary names the file, and
  // its DOT graph keeps to_dot's default name, where both used to say
  // "type1".
  const std::string dir = ::testing::TempDir();
  const std::string source = dir + "/aptsim_gen_intree.txt";
  const std::string copy = dir + "/aptsim_gen_intree_copy.txt";
  const std::string dot = dir + "/aptsim_gen_intree.dot";
  const std::string out = dir + "/aptsim_gen_intree_summary.txt";
  ASSERT_EQ(run_cli("gen --family intree --kernels 12 --seed 5 --out " +
                    quoted(source)),
            0);
  ASSERT_EQ(run_cli("gen --graph " + quoted(source) + " --out " +
                        quoted(copy) + " --dot " + quoted(dot),
                    out),
            0);
  const std::string summary = slurp(out);
  EXPECT_EQ(summary.rfind(source + ": 12 kernels, 11 edges, depth ", 0), 0u)
      << summary;
  EXPECT_EQ(slurp(dot).rfind("digraph dfg {", 0), 0u) << slurp(dot);
  for (const std::string& file : {source, copy, dot, out})
    std::filesystem::remove(file);
}

TEST(Cli, GenUsageErrorsExitNonZero) {
  EXPECT_NE(run_cli("gen --family not-a-family --kernels 16 --seed 1"), 0);
  EXPECT_NE(run_cli("gen --family cholesky --kernels 3 --seed 1"), 0);
  EXPECT_NE(run_cli("gen --family"), 0);  // missing value
  EXPECT_NE(run_cli("gen --kernels nope"), 0);
}

TEST(Cli, GenSyntheticPlatformRoundTrips) {
  const std::string graph_file = ::testing::TempDir() + "/aptsim_gen_syn.txt";
  const std::string lut_file = ::testing::TempDir() + "/aptsim_gen_syn_lut.csv";
  ASSERT_EQ(run_cli("gen --family layered --kernels 20 --seed 2 --ccr 1 "
                    "--hetero 8 --out " + quoted(graph_file) + " --lut-out " +
                    quoted(lut_file)),
            0);
  const apt::dag::Dag graph = apt::dag::load_text_file(graph_file);
  EXPECT_EQ(graph.node_count(), 20u);
  // Every generated kernel must be costable from the emitted table.
  const auto table = apt::lut::LookupTable::from_csv_file(lut_file);
  for (apt::dag::NodeId i = 0; i < graph.node_count(); ++i) {
    EXPECT_TRUE(
        table.contains(graph.node(i).kernel, graph.node(i).data_size));
  }
  // ... and `run --lut` must be able to schedule the emitted pair.
  const std::string out = ::testing::TempDir() + "/aptsim_gen_syn_run.txt";
  ASSERT_EQ(run_cli("run --policy heft --graph " + quoted(graph_file) +
                        " --lut " + quoted(lut_file),
                    out),
            0);
  EXPECT_NE(slurp(out).find("makespan:"), std::string::npos);
  std::filesystem::remove(graph_file);
  std::filesystem::remove(lut_file);
  std::filesystem::remove(out);
}

TEST(Cli, GenAndRunAgreeOnTheSyntheticPlatform) {
  // Identical platform flags (incl. --rate, which calibrates the CCR data
  // sizes) must mean an identical table across commands, so a graph
  // generated by `gen` is costable by `run` without passing --lut.
  const std::string graph_file = ::testing::TempDir() + "/aptsim_gen_r8.txt";
  const std::string out = ::testing::TempDir() + "/aptsim_gen_r8_run.txt";
  ASSERT_EQ(run_cli("gen --family layered --kernels 12 --seed 2 --ccr 1 "
                    "--hetero 8 --rate 8 --out " + quoted(graph_file)),
            0);
  ASSERT_EQ(run_cli("run --policy heft --graph " + quoted(graph_file) +
                        " --ccr 1 --hetero 8 --rate 8",
                    out),
            0);
  EXPECT_NE(slurp(out).find("makespan:"), std::string::npos);
  std::filesystem::remove(graph_file);
  std::filesystem::remove(out);
}

TEST(Cli, RunFamilyHonoursTheSyntheticPlatformFlags) {
  // The same scenario on two very different platforms must schedule
  // differently — i.e. --ccr/--hetero are not silently ignored by `run`.
  const std::string paper = ::testing::TempDir() + "/aptsim_run_paper.txt";
  const std::string synth = ::testing::TempDir() + "/aptsim_run_synth.txt";
  ASSERT_EQ(run_cli("run --policy heft --family layered --kernels 10 "
                    "--seed 2", paper), 0);
  ASSERT_EQ(run_cli("run --policy heft --family layered --kernels 10 "
                    "--seed 2 --ccr 8 --hetero 64", synth), 0);
  const std::string paper_text = slurp(paper);
  EXPECT_NE(paper_text.find("makespan:"), std::string::npos);
  EXPECT_NE(paper_text, slurp(synth));
  std::filesystem::remove(paper);
  std::filesystem::remove(synth);
}

TEST(Cli, SyntheticPlatformsWithOverflowingRowsFail) {
  // Each exited 0: the first two wrote `node 0 syn3 9223372036854775809`
  // (the row size rounding overflowed), the third printed a makespan of
  // 9223372037311.246 ms.
  for (const std::string args :
       {"gen --family layered --kernels 3 --ccr 1 --rate inf",
        "gen --family layered --kernels 3 --ccr 1e300",
        "run --policy met --family layered --kernels 3 --ccr inf"}) {
    const int status = run_cli(args);
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 1) << args;
  }
}

TEST(Cli, FamiliesListsTheRegistry) {
  const std::string out = ::testing::TempDir() + "/aptsim_families.txt";
  ASSERT_EQ(run_cli("families", out), 0);
  const std::string text = slurp(out);
  for (const char* family :
       {"type1", "type2", "layered", "forkjoin", "intree", "outtree",
        "cholesky"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  std::filesystem::remove(out);
}

TEST(Cli, SweepFamilyExportsTheScenarioCube) {
  const std::string csv = ::testing::TempDir() + "/aptsim_sweep_fam.csv";
  const std::string out = ::testing::TempDir() + "/aptsim_sweep_fam.txt";
  ASSERT_EQ(run_cli("sweep --family layered,cholesky --graphs 3 "
                    "--kernels 16,24 --policies met,heft --rates 4 "
                    "--ccr 0.5 --hetero 4 --jobs 4 --csv " + quoted(csv),
                    out),
            0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("scenario[layered+cholesky]"), std::string::npos);
  const auto table = apt::util::read_csv_file(csv);
  EXPECT_EQ(table.row_count(), 12u);  // 2 families x 3 graphs x 2 policies
  // Cells carry their scenario coordinates, not just a flat graph index.
  const auto workload = table.column_index("workload");
  EXPECT_EQ(table.rows()[0][workload], "layered/n16");
  EXPECT_EQ(table.rows()[11][workload], "cholesky/n16");
  std::filesystem::remove(csv);
  std::filesystem::remove(out);
}

TEST(Cli, SweepFamilyIsIdenticalAcrossJobCounts) {
  const std::string csv1 = ::testing::TempDir() + "/aptsim_sweep_fam_j1.csv";
  const std::string csv8 = ::testing::TempDir() + "/aptsim_sweep_fam_j8.csv";
  const std::string flags =
      "sweep --family forkjoin,intree,outtree --graphs 2 --kernels 16 "
      "--policies apt:4,random:{seed} --rates 4,8 --reps 2 --seed 11 "
      "--ccr 2 --hetero 16 ";
  ASSERT_EQ(run_cli(flags + "--jobs 1 --csv " + quoted(csv1)), 0);
  ASSERT_EQ(run_cli(flags + "--jobs 8 --csv " + quoted(csv8)), 0);
  const std::string text1 = slurp(csv1);
  EXPECT_EQ(text1, slurp(csv8));
  EXPECT_FALSE(text1.empty());
  std::filesystem::remove(csv1);
  std::filesystem::remove(csv8);
}

TEST(Cli, SweepUnknownFamilyFails) {
  EXPECT_NE(run_cli("sweep --family not-a-family --policies met"), 0);
}

TEST(Cli, StreamReportsOpenSystemMetrics) {
  const std::string out = ::testing::TempDir() + "/aptsim_stream.txt";
  ASSERT_EQ(run_cli("stream --family type1 --rate 0.002 --duration 4000 "
                    "--policies apt:4,met --seed 5",
                    out),
            0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("thrpt/s"), std::string::npos);
  EXPECT_NE(text.find("slowdown"), std::string::npos);
  EXPECT_NE(text.find("APT(alpha=4.00)"), std::string::npos);
  std::filesystem::remove(out);
}

TEST(Cli, StreamIsBitIdenticalAcrossJobCounts) {
  // The acceptance bar: the full exported cell grid — every flow/slowdown/
  // utilization digit — must match byte for byte between worker counts.
  const std::string csv1 = ::testing::TempDir() + "/aptsim_stream_j1.csv";
  const std::string csv8 = ::testing::TempDir() + "/aptsim_stream_j8.csv";
  const std::string json1 = ::testing::TempDir() + "/aptsim_stream_j1.json";
  const std::string json8 = ::testing::TempDir() + "/aptsim_stream_j8.json";
  const std::string flags =
      "stream --family layered,forkjoin --rate 0.002,0.01 "
      "--policies apt:4,met,ag --kernels 18 --duration 3000 --seed 7 ";
  ASSERT_EQ(run_cli(flags + "--jobs 1 --csv " + quoted(csv1) + " --json " +
                    quoted(json1)),
            0);
  ASSERT_EQ(run_cli(flags + "--jobs 8 --csv " + quoted(csv8) + " --json " +
                    quoted(json8)),
            0);
  const std::string text1 = slurp(csv1);
  EXPECT_EQ(text1, slurp(csv8));
  EXPECT_FALSE(text1.empty());
  EXPECT_EQ(slurp(json1), slurp(json8));
  for (const auto& f : {csv1, csv8, json1, json8})
    std::filesystem::remove(f);
}

TEST(Cli, CsvMatchesTheGoldens) {
  // Four frozen stream grids: noise off on the ideal paper platform, the
  // contended mesh:2x2 fabric, noise with straggler hedging (both slices;
  // apps are recycled while replicas race), and a deep ideal burst whose
  // backlog drives the ready set's tombstone compactions (APT, MET) and
  // in-place removal (OLB, SPN, AG). Then two closed
  // sweeps: APT-Ranked next to APT, MET and HEFT on the ideal and bus
  // fabrics, and the static planners (HEFT, PEFT, APT-Ranked) on the
  // routed ring and mesh:2x2 fabrics, where they plan from a densified
  // topology-priced cost model. A diff means a simulated bit moved; if
  // that is intended, regenerate with `aptsim <flags> --csv <golden>`.
  const struct {
    const char* golden;
    const char* flags;
  } cases[] = {
      {"stream_noise_off.csv",
       "stream --family layered --rate 0.01 --duration 5000 --jobs 1 "
       "--policies apt:4,met"},
      {"stream_contended.csv",
       "stream --family layered --rate 0.01 --duration 5000 --jobs 1 "
       "--policies apt:4,met,ag,ag-net --topology mesh:2x2 --bandwidth 1 "
       "--latency 0.05"},
      {"stream_hedging.csv",
       "stream --family layered --kernels 12 --rate 0.0001 --duration 400000 "
       "--jobs 1 --policies apt:4,met --noise-sigma 0.25 --tail-prob 0.05 "
       "--hedging both"},
      {"stream_burst.csv",
       "stream --family type1 --rate 0.005 --duration 0 --warmup 0 "
       "--max-apps 480 --policies apt:4,met,olb,spn,ag --jobs 1"},
      {"sweep_ranked.csv",
       "sweep --family type1,type2,layered --graphs 3 --kernels 46,157 "
       "--policies apt-ranked:1,apt-ranked:4,apt-ranked:1e6,apt:4,met,heft "
       "--topology ideal,bus --jobs 1"},
      {"sweep_static.csv",
       "sweep --family type1,type2,layered --graphs 3 --kernels 46,157 "
       "--policies heft,peft,apt-ranked:4 --topology ideal,ring,mesh:2x2 "
       "--jobs 1"},
  };
  for (const auto& c : cases) {
    const std::string csv = ::testing::TempDir() + "/aptsim_" + c.golden;
    ASSERT_EQ(run_cli(std::string(c.flags) + " --csv " + quoted(csv)), 0)
        << c.golden;
    const std::string golden =
        slurp(std::string(APTSIM_GOLDEN_DIR) + "/" + c.golden);
    ASSERT_FALSE(golden.empty()) << "missing golden file " << c.golden;
    EXPECT_EQ(slurp(csv), golden) << c.golden;
    std::filesystem::remove(csv);
  }
}

TEST(Cli, StreamRejectsStaticPolicies) {
  EXPECT_NE(run_cli("stream --family type1 --policies heft --duration 1000"),
            0);
}

TEST(Cli, PoliciesListsSpecs) {
  const std::string out = ::testing::TempDir() + "/aptsim_policies.txt";
  ASSERT_EQ(run_cli("policies", out), 0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("apt[:alpha]"), std::string::npos);
  EXPECT_NE(text.find("sufferage"), std::string::npos);
  // The comm-aware variants are registered and advertised.
  EXPECT_NE(text.find("ag-net"), std::string::npos);
  EXPECT_NE(text.find("apt-c[:alpha]"), std::string::npos);
  EXPECT_NE(text.find("apt-q[:alpha]"), std::string::npos);
  std::filesystem::remove(out);
}

TEST(Cli, PoliciesTypoGetsDidYouMean) {
  // A misspelt policy spec or option name fails with the closest match.
  const struct {
    const char* args;
    const char* suggestion;
  } cases[] = {
      {"stream --family type1 --policies apt-cc --duration 500",
       "did you mean 'apt-c'"},
      {"stream --family type1 --rate 0.001 --duration 1000 --policies met "
       "--polcies met",
       "did you mean '--policies'"},
      {"sweep --type 1 --alpha 4", "did you mean '--alphas'"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_NE(run_cli_stderr(c.args, err), 0) << c.args;
    EXPECT_NE(err.find(c.suggestion), std::string::npos)
        << c.args << ": " << err;
  }
}

/// The arguments of every aptsim command in the fenced code blocks of
/// `doc` (a path under the source tree), continuation lines joined.
std::vector<std::string> documented_commands(const std::string& doc) {
  std::istringstream in(slurp(std::string(APTSIM_SOURCE_DIR) + "/" + doc));
  std::vector<std::string> commands;
  std::string line;
  std::string command;
  bool fenced = false;
  bool continued = false;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) fenced = !fenced;
    if (!fenced) continue;
    std::string program;
    std::istringstream(line) >> program;
    if (continued) {
      command += " " + line;
    } else if (program == "aptsim" ||
               apt::util::ends_with(program, "/aptsim")) {
      command = line.substr(line.find(program) + program.size());
    } else {
      continue;
    }
    continued = !command.empty() && command.back() == '\\';
    if (continued) {
      command.pop_back();
      continue;
    }
    commands.push_back(command);
  }
  return commands;
}

TEST(Cli, DocumentedCommandsParse) {
  // Every aptsim command in the READMEs' fenced code blocks declares each
  // option it passes, once and with its value. `--help` parses the whole
  // command line before printing, so nothing runs.
  for (const std::string doc : {"README.md", "results/README.md"}) {
    const std::vector<std::string> commands = documented_commands(doc);
    for (const std::string& command : commands)
      EXPECT_EQ(run_cli(command + " --help"), 0)
          << doc << ": aptsim" << command;
    EXPECT_FALSE(commands.empty()) << doc;
  }
}

TEST(Cli, ResultsMatchTheirRegenerationCommands) {
  // Each command of results/README.md runs with its results/ outputs
  // redirected to the test's temporary directory and must reproduce the
  // checked-in bytes: the only byte-level check of the ring and fattree
  // fabrics, of AG-net and APT-C under contention, and of a stream run's
  // Perfetto trace. If a change is meant to move them, regenerate with the
  // README.
  const std::string source = std::string(APTSIM_SOURCE_DIR) + "/";
  const std::string prefix = ::testing::TempDir() + "/aptsim_results_";
  std::size_t artifacts = 0;
  for (const std::string& documented :
       documented_commands("results/README.md")) {
    std::string command = documented;
    std::vector<std::string> files;
    for (std::size_t at = command.find(" results/"); at != std::string::npos;
         at = command.find(" results/", at)) {
      const std::size_t begin = at + std::strlen(" results/");
      files.push_back(command.substr(begin, command.find(' ', begin) - begin));
      command.replace(at + 1, std::strlen("results/"), prefix);
    }
    ASSERT_FALSE(files.empty()) << command;
    ASSERT_EQ(run_cli(command, "/dev/null"), 0) << command;
    for (const std::string& file : files) {
      const std::string expected = slurp(source + "results/" + file);
      ASSERT_FALSE(expected.empty()) << "missing results/" << file;
      // Not EXPECT_EQ: a failure would print both files in full.
      EXPECT_TRUE(slurp(prefix + file) == expected)
          << "results/" << file << " differs from: aptsim" << documented;
      std::filesystem::remove(prefix + file);
      ++artifacts;
    }
  }
  EXPECT_EQ(artifacts, 3u);
}

TEST(Cli, VersionPrintsBuildInfo) {
  // Both spellings, and the line must carry the git describe (never empty
  // or the literal "unknown" in a CMake build) plus the build type.
  for (const char* spelling : {"--version", "version"}) {
    const std::string out = ::testing::TempDir() + "/aptsim_version.txt";
    ASSERT_EQ(run_cli(spelling, out), 0) << spelling;
    const std::string text = slurp(out);
    EXPECT_EQ(text.rfind("aptsim ", 0), 0u) << text;
    EXPECT_NE(text.find(" build)"), std::string::npos) << text;
    EXPECT_EQ(text.find("aptsim unknown"), std::string::npos) << text;
    EXPECT_GT(text.size(), std::string("aptsim  ( build)\n").size());
    std::filesystem::remove(out);
  }
}

TEST(Cli, RunWithBusTopologyReportsLinkUtilization) {
  const std::string out = ::testing::TempDir() + "/aptsim_run_bus.txt";
  ASSERT_EQ(run_cli("run --policy heft --type 2 --kernels 24 --seed 3 "
                    "--topology bus --bandwidth 0.5 --latency 0.05",
                    out),
            0);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("topology:  bus"), std::string::npos);
  EXPECT_NE(text.find("link bus"), std::string::npos);
  EXPECT_NE(text.find("overlap with compute"), std::string::npos);
  std::filesystem::remove(out);
}

TEST(Cli, RunRejectsUnknownTopology) {
  EXPECT_NE(run_cli("run --policy met --type 1 --kernels 10 --topology "
                    "torus"),
            0);
}

TEST(Cli, RunRejectsMalformedTopologyShapes) {
  // Malformed shape arguments must surface as a CLI error (exit != 0),
  // never a silent fallback to some default fabric.
  for (const std::string bad :
       {"mesh", "mesh:3x", "mesh:x3", "mesh:0x2", "fattree:0", "fattree:1",
        "ring:0", "ring:2x", "hier:0", "ring,bus"}) {
    EXPECT_NE(run_cli("run --policy met --type 1 --kernels 10 --topology " +
                      bad),
              0)
        << bad;
  }
}

TEST(Cli, NonFiniteLinkKnobsFailInsteadOfHanging) {
  // A NaN or infinite --latency used to hang both engines (no message
  // ever activated), and a NaN --bandwidth fell back to the default rate.
  for (const std::string knob :
       {"--latency nan", "--latency inf", "--bandwidth nan"}) {
    EXPECT_NE(run_cli("stream --family type1 --rate 0.005 --max-apps 4 "
                      "--duration 0 --warmup 0 --topology mesh:2x2 "
                      "--policies apt:4 " +
                      knob),
              0)
        << knob;
    EXPECT_NE(run_cli("run --policy apt:4 --type 1 --kernels 10 --seed 1 "
                      "--topology mesh:2x2 " +
                      knob),
              0)
        << knob;
  }
  // An infinite link rate passed and made every transfer free.
  EXPECT_NE(run_cli("run --policy apt:4 --type 1 --rate inf"), 0);
  EXPECT_NE(run_cli("stream --family type1 --rate 0.005 --max-apps 4 "
                    "--duration 0 --warmup 0 --policies apt:4 --link-rate inf"),
            0);
  EXPECT_NE(run_cli("sweep --type 1 --policies met --rates inf"), 0);
  // A finite latency so large that a two-hop message's activation instant
  // overflows to +inf hung both engines too.
  EXPECT_NE(run_cli("stream --family type1 --rate 0.005 --max-apps 4 "
                    "--duration 0 --warmup 0 --topology mesh:2x2 "
                    "--policies apt:4 --latency 1e308"),
            0);
  EXPECT_NE(run_cli("run --policy met --type 1 --kernels 24 --seed 3 "
                    "--topology mesh:2x2 --latency 1e308"),
            0);
}

TEST(Cli, NonFiniteNoiseAndHedgeKnobsFailInsteadOfHanging) {
  // NaN passes `x < bound` checks: an infinite sigma, a NaN tail
  // multiplier or a NaN hedge factor hung the stream engine, NaN sigma,
  // probability, quantile and warmup were accepted silently, a 1e308 tail
  // multiplier or an infinite hedge factor printed corrupt metrics, sigma
  // 50 underflowed every multiplier to 0, and an infinite duration ran
  // until the live-app guard blamed overload.
  for (const std::string knob :
       {"--noise-sigma inf", "--tail-prob 0.5 --tail-mult nan",
        "--hedging on --hedge-factor nan", "--noise-sigma nan",
        "--tail-prob nan", "--hedging on --hedge-quantile nan",
        "--warmup nan", "--warmup inf", "--tail-prob 0.5 --tail-mult 1e308",
        "--hedging on --hedge-factor inf", "--noise-sigma 50",
        "--duration inf"}) {
    EXPECT_NE(run_cli("stream --family type1 --rate 0.001 --duration 1000 "
                      "--policies met " +
                      knob),
              0)
        << knob;
  }
}

TEST(Cli, NonFiniteArrivalInputsFailInsteadOfHanging) {
  // Arrival rates and trace instants: --rate inf ran for seconds until the
  // live-app guard blamed overload, a NaN trace instant hung the stream
  // engine, and an infinite one printed a row of NaN metrics and exited 0.
  const std::string dir = ::testing::TempDir();
  const std::string nan_trace = dir + "/aptsim_trace_nan.txt";
  const std::string inf_trace = dir + "/aptsim_trace_inf.txt";
  std::ofstream(nan_trace) << "0\nnan\n5\n";
  std::ofstream(inf_trace) << "0\ninf\n";
  EXPECT_NE(run_cli("stream --family type1 --rate inf --duration 1000 "
                    "--policies met"),
            0);
  EXPECT_NE(run_cli("stream --family type1 --arrival trace --trace-file " +
                    quoted(nan_trace) + " --policies met"),
            0);
  EXPECT_NE(run_cli("stream --family type1 --arrival trace --trace-file " +
                    quoted(inf_trace) + " --duration 0 --policies met"),
            0);

  // Release offsets: a NaN release in a graph file hung `run`, and an
  // infinite one, or --arrivals inf, printed an infinite makespan and
  // exited 0.
  for (const std::string release : {"nan", "inf"}) {
    const std::string graph = dir + "/aptsim_release_" + release + ".txt";
    const std::string first = "node 0 mm 250000 " + release + "\n";
    std::ofstream(graph) << first << "node 1 mm 250000\nedge 0 1\n";
    EXPECT_NE(run_cli("run --policy met --graph " + quoted(graph)), 0)
        << release;
    std::filesystem::remove(graph);
  }
  EXPECT_NE(run_cli("run --policy met --type 1 --kernels 10 --seed 1 "
                    "--arrivals inf"),
            0);
  std::filesystem::remove(nan_trace);
  std::filesystem::remove(inf_trace);
}

TEST(Cli, RunGraphErrorsNameTheirLine) {
  // A bad value in a graph file used to surface without its line, and an
  // edge id past NodeId's range was narrowed onto node 0 and run.
  const std::string dir = ::testing::TempDir();
  const std::string graph = dir + "/aptsim_bad_graph.txt";
  const std::string err = dir + "/aptsim_bad_graph_err.txt";
  const std::string two_nodes = "node 0 mm 250000\nnode 1 mm 250000\n";
  const struct {
    std::string text;
    std::string error;
  } cases[] = {
      {"node 0 mm 250000\nnode 1 mm 250000 abc\n",
       "line 2: parse_double: not a number: 'abc'"},
      {two_nodes + "edge 0 7\n", "line 3: Dag::add_edge: unknown node id"},
      {two_nodes + "edge 4294967296 1\n",
       "line 3: node id 4294967296 out of range"},
  };
  for (const auto& c : cases) {
    std::ofstream(graph) << c.text;
    const std::string cmd = std::string(APTSIM_PATH) +
                            " run --policy met --graph " + quoted(graph) +
                            " >/dev/null 2> " + quoted(err);
    EXPECT_NE(std::system(cmd.c_str()), 0) << c.text;
    EXPECT_NE(slurp(err).find("Dag::from_text " + c.error), std::string::npos)
        << slurp(err);
  }
  std::filesystem::remove(graph);
  std::filesystem::remove(err);
}

TEST(Cli, RunGraphReadsTabsAndRunsOfSpaces) {
  // The same graph written with single spaces, with tabs, and with runs of
  // spaces and tabs runs to the same report.
  const std::string dir = ::testing::TempDir();
  const std::string text = apt::dag::to_text(
      apt::dag::paper_graph(apt::dag::DfgType::Type2, 3));
  std::string tabs;
  std::string runs;
  for (const char c : text) {
    tabs += c == ' ' ? '\t' : c;
    runs += c == ' ' ? std::string(" \t  ") : std::string(1, c);
  }
  std::string first_report;
  for (const std::string& graph_text : {text, tabs, runs}) {
    const std::string graph = dir + "/aptsim_ws_graph.txt";
    const std::string out = dir + "/aptsim_ws_out.txt";
    std::ofstream(graph) << graph_text;
    ASSERT_EQ(run_cli("run --policy met --graph " + quoted(graph), out), 0);
    const std::string report = slurp(out);
    EXPECT_NE(report.find("kernels:"), std::string::npos) << report;
    if (first_report.empty()) {
      first_report = report;
    } else {
      EXPECT_EQ(report, first_report);
    }
    std::filesystem::remove(graph);
    std::filesystem::remove(out);
  }
}

TEST(Cli, RunGraphRejectsAFileWithoutNodeLines) {
  // An empty or comments-only graph file used to run as a 0-kernel graph
  // and exit 0.
  const std::string dir = ::testing::TempDir();
  const std::string graph = dir + "/aptsim_nodeless_graph.txt";
  const std::string err = dir + "/aptsim_nodeless_err.txt";
  for (const char* text : {"", "# comments only\n\n"}) {
    std::ofstream(graph) << text;
    const std::string cmd = std::string(APTSIM_PATH) +
                            " run --policy met --graph " + quoted(graph) +
                            " >/dev/null 2> " + quoted(err);
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << text;
    EXPECT_EQ(WEXITSTATUS(status), 1) << text;
    EXPECT_NE(slurp(err).find("Dag::load_text_file: '" + graph +
                              "' has no node lines"),
              std::string::npos)
        << slurp(err);
  }
  std::filesystem::remove(graph);
  std::filesystem::remove(err);
}

TEST(Cli, RunWithRoutedTopologiesReportsMultiHopLinks) {
  // ring / mesh / fattree end to end through `run`: the per-link report
  // must appear, and the routed fabrics must show multi-hop routes.
  const std::string out = ::testing::TempDir() + "/aptsim_run_routed.txt";
  for (const std::string topo : {"ring:5", "mesh:2x2", "fattree:2"}) {
    ASSERT_EQ(run_cli("run --policy heft --type 2 --kernels 24 --seed 3 "
                      "--topology " +
                          topo + " --bandwidth 0.5 --latency 0.05",
                      out),
              0)
        << topo;
    const std::string text = slurp(out);
    EXPECT_NE(text.find("topology:  " + topo.substr(0, topo.find(':'))),
              std::string::npos)
        << topo;
    EXPECT_NE(text.find("link "), std::string::npos) << topo;
    EXPECT_NE(text.find("avg route"), std::string::npos) << topo;
    std::filesystem::remove(out);
  }
}

TEST(Cli, SweepAcceptsRoutedTopology) {
  const std::string csv = ::testing::TempDir() + "/aptsim_sweep_routed.csv";
  ASSERT_EQ(run_cli("sweep --family layered --graphs 2 --kernels 18 "
                    "--policies apt:4,heft --rates 4 --topology mesh:2x2 "
                    "--bandwidth 1 --csv " +
                    quoted(csv)),
            0);
  const std::string text = slurp(csv);
  EXPECT_NE(text.find("mesh2x2"), std::string::npos);
  std::filesystem::remove(csv);
}

TEST(Cli, StreamWithRoutedTopologyIsBitIdenticalAcrossJobCounts) {
  const std::string csv1 = ::testing::TempDir() + "/aptsim_stream_ring1.csv";
  const std::string csv8 = ::testing::TempDir() + "/aptsim_stream_ring8.csv";
  const std::string flags =
      "stream --family layered --rate 0.002 --policies apt:4,ag "
      "--kernels 18 --duration 3000 --seed 7 --topology ring:5 "
      "--bandwidth 4 ";
  ASSERT_EQ(run_cli(flags + "--jobs 1 --csv " + quoted(csv1)), 0);
  ASSERT_EQ(run_cli(flags + "--jobs 8 --csv " + quoted(csv8)), 0);
  const std::string text1 = slurp(csv1);
  EXPECT_EQ(text1, slurp(csv8));
  EXPECT_NE(text1.find("ring5"), std::string::npos);
  std::filesystem::remove(csv1);
  std::filesystem::remove(csv8);
}

TEST(Cli, SweepCarriesTopologyColumn) {
  const std::string csv = ::testing::TempDir() + "/aptsim_sweep_topo.csv";
  ASSERT_EQ(run_cli("sweep --family layered --graphs 2 --kernels 18 "
                    "--policies apt:4,heft --rates 4,1 --topology hier:2 "
                    "--csv " +
                        quoted(csv)),
            0);
  const std::string text = slurp(csv);
  EXPECT_NE(text.find("topology"), std::string::npos);
  EXPECT_NE(text.find("hier2"), std::string::npos);
  std::filesystem::remove(csv);
}

TEST(Cli, StreamWithTopologyIsBitIdenticalAcrossJobCounts) {
  // The determinism contract must survive the contended comm phase.
  const std::string csv1 = ::testing::TempDir() + "/aptsim_stream_topo1.csv";
  const std::string csv8 = ::testing::TempDir() + "/aptsim_stream_topo8.csv";
  const std::string flags =
      "stream --family layered --rate 0.002 --policies apt:4,ag "
      "--kernels 18 --duration 3000 --seed 7 --topology bus --bandwidth 1 ";
  ASSERT_EQ(run_cli(flags + "--jobs 1 --csv " + quoted(csv1)), 0);
  ASSERT_EQ(run_cli(flags + "--jobs 8 --csv " + quoted(csv8)), 0);
  const std::string text1 = slurp(csv1);
  EXPECT_EQ(text1, slurp(csv8));
  EXPECT_NE(text1.find("bus"), std::string::npos);
  std::filesystem::remove(csv1);
  std::filesystem::remove(csv8);
}

}  // namespace
