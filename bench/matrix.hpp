// The matrix-bench harness behind chaos_matrix, availability_matrix,
// overload_matrix and mobility_matrix. A bench states its two axes, a cell
// function, its columns and its named gates; run_matrix() runs the cells
// through run_sharded (each with a private registry, merged in cell order),
// renders the table and the per-cell JSON fields, runs the grid again
// without registries for the determinism check (both renderings must be
// byte-identical), prints and records the gates under "checks", and writes
// --json/--trace. A plain gate is always enforced. A full-horizon gate holds
// only at the bench's default workload size, so --no-gate reports it
// without enforcing it. Nothing waives the determinism check or a plain gate.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "shard_runner.hpp"

namespace dohperf::bench {

/// One axis of the grid: its label columns and, per value, one label per
/// column. A cell's JSON key joins its row and column labels with '/'.
struct Axis {
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> labels;

  /// An axis with one label column: `label` of each value.
  template <typename Values, typename Label = std::identity>
  static Axis of(std::string header, const Values& values, Label label = {}) {
    Axis axis{{std::move(header)}, {}};
    for (const auto& v : values) axis.labels.push_back({std::invoke(label, v)});
    return axis;
  }
};

/// 100 * part / whole, and 0 for an empty whole.
inline double percent(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

/// One cell's row: each column adds its table text (under a non-empty
/// header) and its JSON field (under a non-empty key) in one call.
struct Columns {
  std::vector<std::string> headers;
  std::vector<std::string> texts;
  dns::JsonObject fields;

  void add(const std::string& header, const std::string& key,
           dns::JsonValue json, std::string text) {
    if (!header.empty()) {
      headers.push_back(header);
      texts.push_back(std::move(text));
    }
    if (!key.empty()) fields[key] = std::move(json);
  }
  void count(const std::string& header, const std::string& key,
             std::uint64_t n) {
    add(header, key, static_cast<std::int64_t>(n), std::to_string(n));
  }
  void fixed(const std::string& header, const std::string& key, double x,
             int digits) {
    add(header, key, x, stats::format_double(x, digits));
  }
  /// The p-th percentile to one decimal; "-" and 0 for an empty sample.
  void percentile(const std::string& header, const std::string& key,
                  const std::vector<double>& xs, double p) {
    if (xs.empty()) return add(header, key, 0.0, "-");
    fixed(header, key, stats::percentile(xs, p), 1);
  }
};

/// printf into a string, for gate numbers and failure lines.
[[gnu::format(printf, 1, 2)]] inline std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// A named claim over the finished grid, recorded as "checks"/<key>. With
/// <name> = <key> with '_' as ' ', it prints as
///   "<name> check FAIL: <failure>"              (one per offending cell)
///   "<name> check (<claim>): PASS|FAIL [<numbers>]"
struct Gate {
  std::string key;
  std::string claim;
  bool full_horizon = false;  ///< waived by --no-gate
  bool pass = true;
  std::string numbers;
  std::vector<std::string> failures;

  Gate(std::string key, std::string claim, bool full_horizon = false)
      : key(std::move(key)), claim(std::move(claim)),
        full_horizon(full_horizon) {}

  void fail(std::string line) {
    pass = false;
    failures.push_back(std::move(line));
  }
};

/// Marks a gate that holds only at the bench's default workload size.
inline constexpr bool kFullHorizon = true;

/// The gates a bench declares, in print order. A deque, so a gate being
/// filled in stays put while the next one is declared.
using Gates = std::deque<Gate>;

/// The finished cells, as the gates see them.
template <typename Metrics>
struct Grid {
  /// One cell's result plus its private metrics registry.
  // detlint: hot-slot
  struct alignas(64) Cell {
    Metrics metrics;
    obs::Registry registry;
  };

  const std::vector<Cell>& cells;
  std::size_t cols;

  const Metrics& at(std::size_t row, std::size_t col) const {
    return cells[row * cols + col].metrics;
  }
};

template <typename Metrics>
struct Matrix {
  std::string bench;
  dns::JsonObject params;  ///< run_matrix adds "seed"
  Axis rows;
  Axis cols;
  std::function<void(const Metrics&, Columns&)> columns;
  std::function<void(const Grid<Metrics>&, Gates&)> gates;
};

namespace detail {

inline std::vector<std::string> concat(std::vector<std::string> a,
                                       const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Render the table, and put each cell's JSON fields into `scenarios`.
template <typename Metrics>
std::string render(const Matrix<Metrics>& matrix,
                   const std::vector<typename Grid<Metrics>::Cell>& cells,
                   dns::JsonObject& scenarios) {
  const std::size_t cols = matrix.cols.labels.size();
  stats::TextTable table;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto labels =
        concat(matrix.rows.labels[i / cols], matrix.cols.labels[i % cols]);
    std::string key;
    for (const std::string& label : labels) {
      key += (key.empty() ? "" : "/") + label;
    }
    Columns columns;
    matrix.columns(cells[i].metrics, columns);
    if (i == 0) {
      table.add_row(concat(concat(matrix.rows.headers, matrix.cols.headers),
                           columns.headers));
    }
    table.add_row(concat(labels, columns.texts));
    scenarios[key] = dns::JsonValue(std::move(columns.fields));
  }
  return table.render();
}

}  // namespace detail

/// Run a matrix bench and return its exit code. `cell(row, col, seed,
/// registry)` must build an isolated simulation from its arguments alone
/// (`registry` may be null).
template <typename Metrics, typename CellFn>
int run_matrix(int argc, char** argv, std::uint64_t seed,
               const Matrix<Metrics>& matrix, CellFn&& cell) {
  using Cell = typename Grid<Metrics>::Cell;
  BenchReport report(matrix.bench);
  report.params = matrix.params;
  report.params["seed"] = static_cast<std::int64_t>(seed);
  const std::size_t jobs = jobs_flag(argc, argv, default_jobs());
  const std::size_t cols = matrix.cols.labels.size();
  const auto run_grid = [&](bool with_registry) {
    return run_sharded<Cell>(
        matrix.rows.labels.size() * cols, jobs, [&](std::size_t i) {
          Cell slot;
          slot.metrics = cell(i / cols, i % cols, seed,
                              with_registry ? &slot.registry : nullptr);
          return slot;
        });
  };

  const auto cells = run_grid(true);
  obs::Registry registry;
  for (const auto& c : cells) registry.merge_from(c.registry);
  const std::string first = detail::render(matrix, cells, report.scenarios);
  dns::JsonObject rerun;
  const bool deterministic =
      first == detail::render(matrix, run_grid(false), rerun) &&
      report.scenarios == rerun;
  std::fputs(first.c_str(), stdout);
  std::printf("\ndeterminism check (two full grid runs, same seed): %s\n",
              deterministic ? "PASS - byte-identical" : "FAIL");
  report.set("checks", "determinism",
             std::string(deterministic ? "PASS" : "FAIL"));

  Gates gates;
  matrix.gates(Grid<Metrics>{cells, cols}, gates);
  const bool no_gate = flag_set(argc, argv, "no-gate");
  bool ok = deterministic, waivable = false;
  for (const Gate& gate : gates) {
    std::string name = gate.key;
    std::replace(name.begin(), name.end(), '_', ' ');
    for (const std::string& line : gate.failures) {
      std::printf("%s check FAIL: %s\n", name.c_str(), line.c_str());
    }
    std::printf("%s check (%s): %s%s%s\n", name.c_str(), gate.claim.c_str(),
                gate.pass ? "PASS" : "FAIL", gate.numbers.empty() ? "" : " ",
                gate.numbers.c_str());
    report.set("checks", gate.key, std::string(gate.pass ? "PASS" : "FAIL"));
    if (!gate.pass && !(gate.full_horizon && no_gate)) ok = false;
    waivable = waivable || gate.full_horizon;
  }
  if (no_gate && waivable) {
    std::printf("(--no-gate: full-horizon gates reported but not "
                "enforced)\n");
  }
  finish(argc, argv, report, nullptr, &registry);
  return ok ? 0 : 1;
}

}  // namespace dohperf::bench
