// Table 5: per-operator cost of the LADIES operators on each sparse format,
// plus format-conversion costs, on the PD graph. This is the measurement
// that motivates cost-aware data layout selection (Section 4.3): no single
// format is best for every operator, and conversions are not free.

#include <cstdio>

#include "bench/harness.h"
#include "sparse/kernels.h"

namespace gs::bench {
namespace {

using sparse::Format;
using sparse::Matrix;

double VirtualMs() {
  return static_cast<double>(device::Current().stream().counters().virtual_ns) / 1e6;
}

// Rebuilds the base matrix with exactly one format materialized.
Matrix OnlyFormat(const Matrix& m, Format f) {
  switch (f) {
    case Format::kCsc:
      return Matrix::FromCsc(m.num_rows(), m.num_cols(), m.Csc());
    case Format::kCsr:
      return Matrix::FromCsr(m.num_rows(), m.num_cols(), m.Csr());
    case Format::kCoo:
      return Matrix::FromCoo(m.num_rows(), m.num_cols(), m.GetCoo());
  }
  return m;
}

template <typename Fn>
double MeasureMs(Fn&& fn, int repeats = 5) {
  const double t0 = VirtualMs();
  for (int i = 0; i < repeats; ++i) {
    fn();
  }
  return (VirtualMs() - t0) / repeats;
}

void Run() {
  RunConfig config;
  config.dataset_scale = 0.5;
  BenchContext ctx(config);
  const device::DeviceProfile gpu = device::V100Sim();
  device::Device& dev = ctx.DeviceFor(gpu);
  const graph::Graph& g = ctx.GraphFor("PD", gpu);
  device::DeviceGuard guard(dev);

  // Frontier of 256 nodes, like one LADIES mini-batch.
  std::vector<int32_t> fr;
  for (int i = 0; i < 256; ++i) {
    fr.push_back(i * 7 % static_cast<int32_t>(g.num_nodes()));
  }
  const tensor::IdArray frontiers = tensor::IdArray::FromVector(fr);
  Rng rng(5);

  PrintTitle("Table 5 — LADIES operator cost (ms) per format, PD graph");
  PrintRow("operator", {"CSC", "COO", "CSR"});

  const std::vector<Format> formats = {Format::kCsc, Format::kCoo, Format::kCsr};

  // Row 1: A[:, frontiers] on each base-graph format.
  {
    std::vector<std::string> row;
    for (Format f : formats) {
      Matrix base = OnlyFormat(g.adj(), f);
      const double ms = MeasureMs([&] { sparse::SliceColumns(base, frontiers); });
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", ms);
      row.push_back(buf);
    }
    PrintRow("A[:,frontiers]", row);
  }

  // Rows 2-3 operate on the extracted sub-matrix held in each format.
  Matrix sub_csc = sparse::SliceColumns(g.adj(), frontiers);
  sparse::ValueArray probs = sparse::SumAxis(sub_csc, 0);
  {
    std::vector<std::string> row;
    for (Format f : formats) {
      Matrix sub = OnlyFormat(sub_csc, f);
      const double ms = MeasureMs([&] { sparse::SumAxis(sub, 0); });
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", ms);
      row.push_back(buf);
    }
    PrintRow("sub_A.sum()", row);
  }
  {
    std::vector<std::string> row;
    for (Format f : formats) {
      Matrix sub = OnlyFormat(sub_csc, f);
      const double ms =
          MeasureMs([&] { sparse::CollectiveSample(sub, 256, probs, {&rng, 1}); });
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", ms);
      row.push_back(buf);
    }
    PrintRow("collective_samp", row);
  }

  // Conversion costs on the extracted sub-matrix.
  {
    const double csc2coo = MeasureMs([&] {
      Matrix m = OnlyFormat(sub_csc, Format::kCsc);
      m.GetCoo();
    });
    const double coo2csr = MeasureMs([&] {
      Matrix m = OnlyFormat(sub_csc, Format::kCoo);
      m.Csr();
    });
    char a[64];
    char b[64];
    std::snprintf(a, sizeof(a), "%.3f", csc2coo);
    std::snprintf(b, sizeof(b), "%.3f", coo2csr);
    PrintRow("CSC2COO", {a});
    PrintRow("COO2CSR", {b});
  }

  std::printf("\n(Paper shape: extraction is far cheapest from CSC; reduction and\n"
              " collective sampling prefer CSR; conversions cost real time — hence\n"
              " the cost-aware layout search.)\n");
}

}  // namespace
}  // namespace gs::bench

int main() {
  gs::bench::Run();
  return 0;
}
