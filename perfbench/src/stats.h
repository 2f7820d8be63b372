// Summary statistics of the benchmark's samples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 for none.
[[nodiscard]] double median(std::vector<double> values);

/// Arithmetic mean; 0 for none.
[[nodiscard]] double mean(const std::vector<double>& values);

/// Nearest-rank percentile: the value at rank ceil(p/100 * n) of the sorted
/// sample (rank 1 = smallest).  Requires a non-empty sample, 0 < p <= 100.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// The tail statistic every latency is reported with: the highest of the
/// percentiles 75, 90, 95, 99 and 99.9 that has at least
/// `kTailMinBeyond` samples beyond its rank.  Absent (`present` false)
/// below 40 samples, where not even p75 has ten samples beyond it.
struct Tail {
  bool present = false;
  double percentile = 0.0;  ///< e.g. 90 for p90
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples strictly after the percentile's rank
};
constexpr std::size_t kTailMinBeyond = 10;
[[nodiscard]] Tail tail(const std::vector<double>& values);

/// 64-bit FNV-1a, the fingerprint of generated inputs.
class Fingerprint {
 public:
  void add(const std::string& bytes);
  void add(std::uint64_t value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
