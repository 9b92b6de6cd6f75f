// run_matrix fixture: the matrix harness hands the bench's cell lambda to
// run_sharded, so that lambda is a shard functor. Expected: 1 x CONC001
// (the function-local static in cell_helper(), reached only through the
// lambda passed to run_matrix) and 1 x CONC002 (the lambda's write through
// its reference capture `calls`).  Nothing else.
#include <cstddef>
#include <cstdint>

namespace bench {
template <typename Matrix, typename Fn>
int run_matrix(int argc, char** argv, const Matrix& matrix, Fn&& cell);
}  // namespace bench

struct Spec {};

int cell_helper(std::size_t row, std::size_t col) {
  static int seen = 0;
  ++seen;
  return static_cast<int>(row * 10 + col) + seen;
}

int main(int argc, char** argv) {
  const Spec spec;
  int calls = 0;
  return bench::run_matrix(argc, argv, spec,
                           [&](std::size_t row, std::size_t col,
                               std::uint64_t seed, void* registry) {
                             (void)seed;
                             (void)registry;
                             calls += 1;
                             return cell_helper(row, col);
                           });
}
