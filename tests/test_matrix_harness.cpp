// The matrix-bench harness (bench/matrix.hpp) on a toy 3x2 grid: the JSON
// does not depend on --jobs, a cell that carries state between calls fails
// the determinism check, and --no-gate waives full-horizon gates only.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "matrix.hpp"

namespace {

using namespace dohperf;

struct Toy {
  std::uint64_t value = 0;
};

/// A pure cell: a function of its coordinates and the seed alone. It also
/// counts itself in the registry, when it is given one.
Toy pure_cell(std::size_t row, std::size_t col, std::uint64_t seed,
              obs::Registry* registry) {
  if (registry != nullptr) registry->add("toy.cells");
  return {seed * 100 + row * 10 + col};
}

/// One gate per {key, passes, full_horizon}.
struct ToyGate {
  const char* key;
  bool passes;
  bool full_horizon;
};

bench::Matrix<Toy> toy_matrix(std::vector<ToyGate> gates = {}) {
  return {"toy_matrix",
          {},
          bench::Axis::of("row", std::vector<std::string>{"a", "b", "c"}),
          bench::Axis::of("col", std::vector<std::string>{"x", "y"}),
          [](const Toy& t, bench::Columns& c) {
            c.count("value", "value", t.value);
          },
          [gates](const bench::Grid<Toy>&, bench::Gates& out) {
            for (const ToyGate& g : gates) {
              out.emplace_back(g.key, "toy claim", g.full_horizon).pass =
                  g.passes;
            }
          }};
}

struct Outcome {
  int exit_code = 0;
  std::string json;

  std::string check(const std::string& name) const {
    return dns::JsonValue::parse(json)
        .at("scenarios")
        .at("checks")
        .at(name)
        .as_string();
  }
};

/// Run the harness as a bench's main() would, with `flags` after --json.
template <typename CellFn>
Outcome run_toy(const std::string& tag, const bench::Matrix<Toy>& matrix,
            CellFn&& cell, const std::vector<std::string>& flags) {
  const std::string path =
      ::testing::TempDir() + "matrix_harness_" + tag + ".json";
  std::vector<std::string> args = {"toy_matrix", "--json=" + path};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  Outcome out;
  out.exit_code = bench::run_matrix(static_cast<int>(argv.size()),
                                    argv.data(), 3, matrix, cell);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  out.json = text.str();
  return out;
}

TEST(MatrixHarness, BoxJsonOfAnEmptySampleIsItsCountOnly) {
  const dns::JsonValue empty = bench::box_json({});
  ASSERT_TRUE(empty.is_object());
  EXPECT_EQ(empty.as_object().size(), 1u);
  EXPECT_EQ(empty.at("n").as_int(), 0);
  const dns::JsonValue one = bench::box_json({4.0});
  EXPECT_EQ(one.at("n").as_int(), 1);
  EXPECT_DOUBLE_EQ(one.at("med").as_double(), 4.0);
}

TEST(MatrixHarness, JsonIsByteIdenticalAtJobs1And4) {
  const Outcome serial =
      run_toy("jobs1", toy_matrix(), pure_cell, {"--jobs=1"});
  const Outcome sharded =
      run_toy("jobs4", toy_matrix(), pure_cell, {"--jobs=4"});
  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_EQ(sharded.exit_code, 0);
  ASSERT_FALSE(serial.json.empty());
  EXPECT_EQ(serial.json, sharded.json);

  const dns::JsonValue doc = dns::JsonValue::parse(serial.json);
  EXPECT_EQ(doc.at("scenarios").at("b/y").at("value").as_int(), 311);
  EXPECT_EQ(serial.check("determinism"), "PASS");
  // One registry per cell, merged: every cell counted itself once.
  EXPECT_EQ(doc.at("metrics").at("counters").at("toy.cells").as_int(), 6);
}

TEST(MatrixHarness, StatefulCellFailsTheDeterminismCheck) {
  std::uint64_t calls = 0;
  const auto stateful = [&calls](std::size_t, std::size_t, std::uint64_t,
                                 obs::Registry*) {
    // Deliberately impure; --jobs=1 keeps the calls serial.
    ++calls;
    return Toy{calls};
  };
  const Outcome out =
      run_toy("stateful", toy_matrix(), stateful, {"--jobs=1"});
  EXPECT_EQ(out.check("determinism"), "FAIL");
  EXPECT_NE(out.exit_code, 0);
}

TEST(MatrixHarness, FailingPlainGateFailsEvenUnderNoGate) {
  // The passing full-horizon gate makes the bench read --no-gate at all.
  const auto matrix =
      toy_matrix({{"plain", false, false}, {"horizon", true, true}});
  const Outcome out = run_toy("plain", matrix, pure_cell, {"--no-gate"});
  EXPECT_EQ(out.check("plain"), "FAIL");
  EXPECT_EQ(out.check("horizon"), "PASS");
  EXPECT_EQ(out.check("determinism"), "PASS");
  EXPECT_EQ(out.exit_code, 1);
}

TEST(MatrixHarness, NoGateWaivesOnlyFullHorizonGates) {
  const auto matrix =
      toy_matrix({{"plain", true, false}, {"horizon", false, true}});
  const Outcome enforced = run_toy("horizon", matrix, pure_cell, {});
  EXPECT_EQ(enforced.check("horizon"), "FAIL");
  EXPECT_EQ(enforced.exit_code, 1);

  const Outcome waived = run_toy("waived", matrix, pure_cell, {"--no-gate"});
  EXPECT_EQ(waived.check("horizon"), "FAIL");  // still reported
  EXPECT_EQ(waived.check("plain"), "PASS");
  EXPECT_EQ(waived.exit_code, 0);
}

}  // namespace
