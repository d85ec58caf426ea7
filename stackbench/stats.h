// Timing, percentile and report helpers for the stack benchmark.
#ifndef WFRM_STACKBENCH_STATS_H_
#define WFRM_STACKBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace stackbench {

/// steady_clock, in nanoseconds.
int64_t NowNs();

/// Blocks until steady time `t_ns`: sleeps to within ~100µs of it, then
/// yields in a loop, so an open-loop send leaves on time instead of one
/// scheduler tick late. Returns at once when `t_ns` has passed.
void SleepUntilNs(int64_t t_ns);

/// The q-quantile (q in [0,1]) by linear interpolation between closest
/// ranks; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Ordered (name, unit, value) metrics rendered as the benchmark's final
/// JSON line.
class Report {
 public:
  void Add(std::string name, std::string unit, double value);

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;
  /// One "name value unit" line per metric.
  std::string Text() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Metric> metrics_;
};

}  // namespace stackbench

#endif  // WFRM_STACKBENCH_STATS_H_
