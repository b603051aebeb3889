#include "io/task_set_io.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/check.h"

namespace lpfps::io {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("task set parse error at line " +
                           std::to_string(line) + ": " + message);
}

/// Strips a trailing "# ..." comment and surrounding whitespace.
std::string strip(const std::string& raw) {
  std::string s = raw;
  if (const auto hash = s.find('#'); hash != std::string::npos) {
    s.erase(hash);
  }
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

bool parse_number(const std::string& token, double& out) {
  try {
    std::size_t consumed = 0;
    out = std::stod(token, &consumed);
    return consumed == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

std::string show(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.15g", value);
  return buffer;
}

/// 2^63: every finite double strictly inside (-2^63, 2^63) truncates to
/// a representable std::int64_t.
constexpr double kInt64Limit = 9223372036854775808.0;

/// Rejects values no task field can hold: NaN, infinities and
/// magnitudes outside std::int64_t (the integer time fields' type; WCET
/// and BCET are bounded by the deadline, so the same range applies).
void require_representable(double value, int line, const char* field) {
  if (!std::isfinite(value)) {
    fail(line, std::string(field) + " must be finite, got " + show(value));
  }
  if (std::fabs(value) >= kInt64Limit) {
    fail(line, std::string(field) + " " + show(value) +
                   " is outside the 64-bit integer time range");
  }
}

std::int64_t to_time_integer(double value, int line, const char* field) {
  if (value <= 0.0 || value != std::floor(value)) {
    fail(line, std::string(field) + " must be a positive integer, got " +
                   show(value));
  }
  return static_cast<std::int64_t>(value);
}

}  // namespace

sched::TaskSet parse_task_set(std::istream& in) {
  sched::TaskSet tasks;
  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::string line = strip(raw);
    if (line.empty()) continue;

    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name.empty()) continue;
    double number = 0.0;
    if (parse_number(name, number)) {
      fail(line_number, "task name must not be numeric: " + name);
    }

    // Collect the remaining tokens; decide keyed vs positional by the
    // presence of '='.
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.empty()) fail(line_number, "missing fields after name");

    double period = 0.0;
    double wcet = 0.0;
    double deadline = -1.0;
    double bcet = -1.0;
    double phase = 0.0;

    const bool keyed = tokens.front().find('=') != std::string::npos;
    if (keyed) {
      for (const std::string& token : tokens) {
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
          fail(line_number, "expected key=value, got " + token);
        }
        const std::string key = token.substr(0, eq);
        double value = 0.0;
        if (!parse_number(token.substr(eq + 1), value)) {
          fail(line_number, "bad numeric value in " + token);
        }
        if (key == "period") {
          period = value;
        } else if (key == "wcet") {
          wcet = value;
        } else if (key == "deadline") {
          deadline = value;
        } else if (key == "bcet") {
          bcet = value;
        } else if (key == "phase") {
          phase = value;
        } else {
          fail(line_number, "unknown key: " + key);
        }
      }
    } else {
      double* const slots[] = {&period, &wcet, &deadline, &bcet, &phase};
      if (tokens.size() > std::size(slots)) {
        fail(line_number, "too many fields");
      }
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (!parse_number(tokens[i], *slots[i])) {
          fail(line_number, "bad numeric field: " + tokens[i]);
        }
      }
    }

    // Every semantic rule make_task would assert is checked here first,
    // so malformed files fail with a typed, line-numbered error.
    require_representable(period, line_number, "period");
    require_representable(wcet, line_number, "wcet");
    require_representable(deadline, line_number, "deadline");
    require_representable(bcet, line_number, "bcet");
    require_representable(phase, line_number, "phase");
    if (period <= 0.0) fail(line_number, "period is required and positive");
    if (wcet <= 0.0) fail(line_number, "wcet is required and positive");
    if (deadline < 0.0) deadline = period;
    if (bcet < 0.0) bcet = wcet;
    if (deadline > period) {
      fail(line_number, "deadline " + show(deadline) + " exceeds period " +
                            show(period) + " (deadlines must be D <= T)");
    }
    if (wcet > deadline) {
      fail(line_number, "wcet " + show(wcet) + " exceeds deadline " +
                            show(deadline));
    }
    if (bcet <= 0.0 || bcet > wcet) {
      fail(line_number,
           "bcet " + show(bcet) + " must lie in (0, wcet=" + show(wcet) + "]");
    }
    if (phase < 0.0) {
      fail(line_number, "phase must be non-negative, got " + show(phase));
    }

    try {
      tasks.add(sched::make_task(
          name, to_time_integer(period, line_number, "period"),
          to_time_integer(deadline, line_number, "deadline"), wcet, bcet,
          static_cast<std::int64_t>(phase)));
    } catch (const std::logic_error& error) {
      fail(line_number, error.what());
    }
  }
  return tasks;
}

sched::TaskSet parse_task_set_string(const std::string& text) {
  std::istringstream in(text);
  return parse_task_set(in);
}

sched::TaskSet load_task_set(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open task set file: " + path);
  }
  return parse_task_set(in);
}

std::string format_task_set(const sched::TaskSet& tasks) {
  std::ostringstream os;
  os << "# name period wcet deadline bcet phase   (times in microseconds)\n";
  for (const sched::Task& t : tasks.tasks()) {
    os << t.name << " " << t.period << " " << t.wcet << " " << t.deadline
       << " " << t.bcet << " " << t.phase << "\n";
  }
  return os.str();
}

void save_task_set(const sched::TaskSet& tasks, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write task set file: " + path);
  }
  out << format_task_set(tasks);
  if (!out) {
    throw std::runtime_error("write failed: " + path);
  }
}

}  // namespace lpfps::io
