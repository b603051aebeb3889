// Malformed task files: every entry of the corpus must be rejected by
// the parser with a line-numbered std::runtime_error naming the broken
// rule, and the CLI must report that same error (exit status 1) instead
// of tripping an internal consistency check further down the pipeline.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "io/task_set_io.h"

namespace lpfps::io {
namespace {

struct Malformed {
  const char* name;
  const char* text;
  int line;              ///< The line the error must name.
  const char* fragment;  ///< Part of the expected diagnostic.
};

// A valid first line keeps the line numbering honest.
constexpr const char* kValid = "ok 1000 100\n";

const Malformed kCorpus[] = {
    {"deadline_past_period", "bad 100 10 150\n", 2, "exceeds period"},
    {"keyed_deadline_past_period", "bad period=100 wcet=10 deadline=101\n", 2,
     "exceeds period"},
    {"huge_period", "bad 1e300 10\n", 2, "outside the 64-bit integer"},
    {"period_past_int64", "bad 9.3e18 10\n", 2, "outside the 64-bit integer"},
    {"infinite_period", "bad inf 10\n", 2, "period must be finite"},
    {"nan_period", "bad nan 10\n", 2, "period must be finite"},
    {"infinite_wcet", "bad 100 inf\n", 2, "wcet must be finite"},
    {"nan_wcet", "bad 100 nan\n", 2, "wcet must be finite"},
    {"huge_deadline", "bad period=100 wcet=10 deadline=1e19\n", 2,
     "outside the 64-bit integer"},
    {"nan_deadline", "bad 100 10 nan\n", 2, "deadline must be finite"},
    {"huge_phase", "bad 100 10 100 10 1e30\n", 2,
     "outside the 64-bit integer"},
    {"infinite_phase", "bad 100 10 100 10 -inf\n", 2, "phase must be finite"},
    {"negative_phase", "bad 100 10 100 10 -5\n", 2, "phase must be non-negative"},
    {"wcet_past_deadline", "bad 100 60 50\n", 2, "exceeds deadline"},
    {"bcet_past_wcet", "bad 100 10 100 20\n", 2, "bcet 20 must lie"},
    {"zero_bcet", "bad period=100 wcet=10 bcet=0\n", 2, "bcet 0 must lie"},
    {"fractional_period", "bad 100.5 10\n", 2, "positive integer"},
};

std::string file_for(const Malformed& entry) {
  return ::testing::TempDir() + "corpus_" + entry.name + ".tasks";
}

TEST(TaskSetCorpus, ParserRaisesLineNumberedErrors) {
  for (const Malformed& entry : kCorpus) {
    SCOPED_TRACE(entry.name);
    const std::string text = std::string(kValid) + entry.text;
    try {
      parse_task_set_string(text);
      ADD_FAILURE() << "accepted malformed input";
    } catch (const std::runtime_error& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("line " + std::to_string(entry.line) + ":"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(entry.fragment), std::string::npos) << message;
      EXPECT_EQ(message.find("check failed"), std::string::npos) << message;
    }
  }
}

/// Runs the CLI on `path`; returns its exit status and combined output.
std::pair<int, std::string> run_cli(const std::string& path) {
  const std::string command =
      std::string("\"") + LPFPS_SIM_PATH + "\" \"" + path + "\" 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string output;
  std::array<char, 256> buffer{};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

TEST(TaskSetCorpus, CliReportsTheParseError) {
  for (const Malformed& entry : kCorpus) {
    SCOPED_TRACE(entry.name);
    const std::string path = file_for(entry);
    {
      std::ofstream out(path);
      out << kValid << entry.text;
    }
    const auto [status, output] = run_cli(path);
    EXPECT_EQ(status, 1) << output;
    EXPECT_NE(output.find("task set parse error at line " +
                          std::to_string(entry.line) + ":"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find(entry.fragment), std::string::npos) << output;
    EXPECT_EQ(output.find("check failed"), std::string::npos) << output;
    std::remove(path.c_str());
  }
}

TEST(TaskSetCorpus, BoundaryValuesStillParse) {
  // D == T, BCET == WCET == D, and a period just inside the int64 range
  // are legal.
  const sched::TaskSet tasks = parse_task_set_string(
      "tight 100 100 100 100 0\n"
      "long 4611686018427387904 10\n");
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].deadline, tasks[0].period);
  EXPECT_EQ(tasks[1].period, std::int64_t{1} << 62);
}

}  // namespace
}  // namespace lpfps::io
