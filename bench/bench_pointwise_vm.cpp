// Microbenchmark of the Section 3.4 "pointwise vector-multiply" kernel
// (equation (4)): naive modulo indexing vs the paper's recursive/tiled form
// vs tiled + 4-way unrolling. Google-benchmark, host CPU.
//
// The paper's argument: much of the AGCM's local computation has the shape
// C(i,j) = A(i,j,s) * B(i), which no BLAS-1 routine covers; an optimized
// a (.) b routine would lift those loops the way dcopy/dscal/daxpy lifted
// the simpler ones. The tiled/unrolled variants quantify what such a
// routine buys over the naive loop nest.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "singlenode/miniblas.hpp"
#include "singlenode/pointwise.hpp"
#include "util/rng.hpp"

namespace agcm::singlenode {
namespace {

struct Operands {
  std::vector<double> a, b, out;
};

Operands make_operands(std::int64_t n, std::int64_t m) {
  Operands op;
  Rng rng(static_cast<std::uint64_t>(n * 31 + m));
  op.a.resize(static_cast<std::size_t>(n));
  op.b.resize(static_cast<std::size_t>(m));
  op.out.resize(static_cast<std::size_t>(n));
  for (double& v : op.a) v = rng.uniform(-1.0, 1.0);
  for (double& v : op.b) v = rng.uniform(-1.0, 1.0);
  return op;
}

void BM_PointwiseNaive(benchmark::State& state) {
  auto op = make_operands(state.range(0), state.range(1));
  for (auto _ : state) {
    pointwise_multiply_naive(op.a, op.b, op.out);
    benchmark::DoNotOptimize(op.out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PointwiseTiled(benchmark::State& state) {
  auto op = make_operands(state.range(0), state.range(1));
  for (auto _ : state) {
    pointwise_multiply_tiled(op.a, op.b, op.out);
    benchmark::DoNotOptimize(op.out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PointwiseUnrolled(benchmark::State& state) {
  auto op = make_operands(state.range(0), state.range(1));
  for (auto _ : state) {
    pointwise_multiply_unrolled(op.a, op.b, op.out);
    benchmark::DoNotOptimize(op.out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// (n, m) pairs: the AGCM shape is n = whole-field, m = one line (144) or
// one column (9 / 15 layers).
void shapes(benchmark::internal::Benchmark* b) {
  b->Args({144 * 90, 144})
      ->Args({144 * 90 * 9, 144})
      ->Args({144 * 90 * 9, 9})
      ->Args({144 * 90 * 15, 15})
      ->Args({1 << 16, 16});
}

BENCHMARK(BM_PointwiseNaive)->Apply(shapes);
BENCHMARK(BM_PointwiseTiled)->Apply(shapes);
BENCHMARK(BM_PointwiseUnrolled)->Apply(shapes);

// The mini-BLAS routines the paper substituted for hand-coded loops.
void BM_DaxpyPlain(benchmark::State& state) {
  auto op = make_operands(state.range(0), state.range(0));
  for (auto _ : state) {
    daxpy(1.0001, op.a, op.b);
    benchmark::DoNotOptimize(op.b.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DaxpyUnrolled(benchmark::State& state) {
  auto op = make_operands(state.range(0), state.range(0));
  for (auto _ : state) {
    daxpy_unrolled(1.0001, op.a, op.b);
    benchmark::DoNotOptimize(op.b.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_DaxpyPlain)->Arg(144 * 90)->Arg(144 * 90 * 9);
BENCHMARK(BM_DaxpyUnrolled)->Arg(144 * 90)->Arg(144 * 90 * 9);

}  // namespace
}  // namespace agcm::singlenode

// Accepts the harness's uniform --json[=path] and --no-json flags
// (bench_common.hpp) next to google-benchmark's own: --json writes the
// google-benchmark JSON report to BENCH_pointwise_vm.json (or to `path`),
// --no-json writes none, which is also the default; the last one wins.
// They are stripped before benchmark::Initialize, which rejects flags it
// does not know.
int main(int argc, char** argv) {
  std::optional<std::string> json_path;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--no-json") {
      json_path.reset();
    } else if (arg == "--json") {
      json_path = "BENCH_pointwise_vm.json";
    } else if (arg.starts_with("--json=")) {
      json_path = std::string(arg.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string out_flag = "--benchmark_out=" + json_path.value_or("");
  std::string format_flag = "--benchmark_out_format=json";
  if (json_path) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int nargs = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&nargs, args.data());
  if (benchmark::ReportUnrecognizedArguments(nargs, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
