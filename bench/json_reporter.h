#ifndef WFRM_BENCH_JSON_REPORTER_H_
#define WFRM_BENCH_JSON_REPORTER_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

namespace wfrm::bench {

/// Machine-readable bench output: one JSON object per line per finished
/// benchmark config, alongside the normal console table. Activated by
/// setting WFRM_BENCH_JSON to a file path ("-" for stdout); without the
/// variable the reporter behaves exactly like ConsoleReporter. Line
/// format:
///   {"name":"BM_X/64","iterations":N,"real_ns":..,"cpu_ns":..,
///    "threads":T,"counters":{"hit_rate":0.99,...}}
/// CI parses these lines from the uploaded artifact; keep keys stable.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  JsonLineReporter() {
    const char* path = std::getenv("WFRM_BENCH_JSON");
    if (path == nullptr || *path == '\0') return;
    if (std::string(path) == "-") {
      out_ = &std::cout;
      return;
    }
    file_ = std::make_unique<std::ofstream>(path, std::ios::app);
    if (file_->good()) out_ = file_.get();
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    if (out_ == nullptr) return;
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      // Adjusted times are in the bench's display unit (Unit(...)).
      const double to_ns =
          1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      *out_ << "{\"name\":\"" << Escape(run.benchmark_name())
            << "\",\"iterations\":" << run.iterations
            << ",\"real_ns\":" << run.GetAdjustedRealTime() * to_ns
            << ",\"cpu_ns\":" << run.GetAdjustedCPUTime() * to_ns
            << ",\"threads\":" << run.threads << ",\"counters\":{";
      bool first = true;
      for (const auto& [name, counter] : run.counters) {
        if (!first) *out_ << ',';
        first = false;
        *out_ << '"' << Escape(name) << "\":" << counter.value;
      }
      *out_ << "}}\n";
    }
    out_->flush();
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string escaped;
    escaped.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    return escaped;
  }

  std::unique_ptr<std::ofstream> file_;
  std::ostream* out_ = nullptr;
};

/// Drop-in BENCHMARK_MAIN() replacement that routes through
/// JsonLineReporter. Benches that should emit JSON lines call this from
/// their own main().
inline int RunBenchmarksWithJson(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace wfrm::bench

#define WFRM_BENCH_JSON_MAIN()                            \
  int main(int argc, char** argv) {                       \
    return ::wfrm::bench::RunBenchmarksWithJson(argc, argv); \
  }

#endif  // WFRM_BENCH_JSON_REPORTER_H_
