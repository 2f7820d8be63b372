#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty() || p <= 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: empty sample or p out of range");
  }
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

Tail tail(const std::vector<double>& values) {
  Tail t;
  const std::size_t n = values.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n == 0) break;
    const std::size_t rank = nearest_rank(n, p);
    if (n - rank >= kTailMinBeyond) {
      t.present = true;
      t.percentile = p;
      t.value = percentile(values, p);
      t.beyond = n - rank;
      break;
    }
  }
  return t;
}

void Fingerprint::add(const std::string& bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  add(static_cast<std::uint64_t>(bytes.size()));
}

void Fingerprint::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (value >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
